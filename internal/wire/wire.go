// Package wire provides bit-exact message encoding for the CONGEST model.
//
// The CONGEST model (Peleg, 2000) bounds every per-round, per-edge message to
// B = O(log n) bits. Byte-oriented encodings systematically over-count, so
// this package packs values at bit granularity and reports the exact number
// of bits written. The congest simulator uses those counts to enforce the
// bandwidth bound honestly (e.g. Section 5 of the paper ships (c log n)-bit
// ranks over several rounds of B-bit chunks).
//
// Encoding is little-endian within bytes: the first bit written is the least
// significant bit of the first byte. Readers must consume fields in exactly
// the order and width they were written; there is no self-description.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrShortBuffer is returned by Reader methods when fewer bits remain than
// were requested.
var ErrShortBuffer = errors.New("wire: read past end of buffer")

// BitsFor returns the number of bits required to represent every value in
// [0, maxValue]. BitsFor(0) == 1 so that a field is never zero-width.
func BitsFor(maxValue uint64) int {
	if maxValue == 0 {
		return 1
	}
	return bits.Len64(maxValue)
}

// CongestBytes bounds a CONGEST message under the simulator's default
// bandwidth for n < 2³²: B = 8⌈log₂ n⌉ ≤ 256 bits.
const CongestBytes = 32

// Writer accumulates a bit-packed message. The zero value is ready to use.
// Payloads up to CongestBytes live in an array inside the Writer, so a
// `var w wire.Writer` local to a function stays on the stack; only larger
// ones (LOCAL-model payloads, transport frames) spill to the heap.
type Writer struct {
	// small holds the payload until it outgrows CongestBytes; from then on
	// spill does (non-nil marks the spilled state, kept across Reset).
	small [CongestBytes]byte
	spill []byte
	nbits int
}

// WriteBits appends the low n bits of v, 0 <= n <= 64. Bits above position n
// in v must be zero; violating this corrupts subsequent fields, so WriteBits
// masks v defensively.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("wire: WriteBits width %d out of range [0,64]", n))
	}
	if n < 64 {
		v &= (1 << uint(n)) - 1
	}
	if byteIdx := w.nbits >> 3; w.spill == nil && byteIdx+9 <= CongestBytes {
		// One 8-byte store, and a ninth byte for a field that straddles
		// it. Bits above the write position are dropped: they are what a
		// Reset left behind.
		bitIdx := uint(w.nbits & 7)
		word := binary.LittleEndian.Uint64(w.small[byteIdx:]) & (1<<bitIdx - 1)
		binary.LittleEndian.PutUint64(w.small[byteIdx:], word|v<<bitIdx)
		if n+int(bitIdx) > 64 {
			w.small[byteIdx+8] = byte(v >> (64 - bitIdx))
		}
		w.nbits += n
		return
	}
	for n > 0 {
		byteIdx := w.nbits >> 3
		bitIdx := w.nbits & 7
		take := 8 - bitIdx
		if take > n {
			take = n
		}
		// v holds at most n significant bits, so byte(v)<<bitIdx never
		// sets a bit past the field.
		b := byte(v) << uint(bitIdx)
		if w.spill == nil && byteIdx < CongestBytes {
			if bitIdx == 0 {
				w.small[byteIdx] = b // a fresh byte: drop what a Reset left behind
			} else {
				w.small[byteIdx] |= b
			}
		} else {
			if w.spill == nil {
				w.spill = append(make([]byte, 0, 2*CongestBytes), w.small[:]...)
			}
			if byteIdx == len(w.spill) {
				w.spill = append(w.spill, 0)
			}
			w.spill[byteIdx] |= b
		}
		v >>= uint(take)
		w.nbits += take
		n -= take
	}
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.WriteBits(v, 1)
}

// WriteUint appends v using BitsFor(maxValue) bits. maxValue must be an a
// priori bound shared by sender and receiver (typically derived from the
// polynomial upper bound on n that every node knows).
func (w *Writer) WriteUint(v, maxValue uint64) {
	if v > maxValue {
		panic(fmt.Sprintf("wire: value %d exceeds declared max %d", v, maxValue))
	}
	w.WriteBits(v, BitsFor(maxValue))
}

// WriteInt appends a signed value in [-maxAbs, maxAbs] using zig-zag encoding
// in BitsFor(2*maxAbs) bits.
func (w *Writer) WriteInt(v, maxAbs int64) {
	if v > maxAbs || v < -maxAbs {
		panic(fmt.Sprintf("wire: value %d exceeds declared magnitude %d", v, maxAbs))
	}
	zz := uint64(v<<1) ^ uint64(v>>63)
	w.WriteBits(zz, BitsFor(2*uint64(maxAbs)))
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbits }

// Bytes returns the packed buffer, ⌈Len()/8⌉ bytes long. The final byte may
// contain up to seven padding zero bits; Len disambiguates. The slice
// aliases the writer and is valid until its next write or Reset.
func (w *Writer) Bytes() []byte {
	if w.spill != nil {
		return w.spill
	}
	return w.small[:(w.nbits+7)>>3]
}

// Reset clears the writer for reuse without reallocating.
func (w *Writer) Reset() {
	if w.spill != nil {
		w.spill = w.spill[:0]
	}
	w.nbits = 0
}

// Reader consumes a bit-packed message produced by Writer.
type Reader struct {
	buf   []byte
	nbits int // total valid bits
	pos   int
}

// NewReader wraps a buffer holding nbits valid bits.
func NewReader(buf []byte, nbits int) *Reader {
	return &Reader{buf: buf, nbits: nbits}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbits - r.pos }

// ReadBits consumes n bits and returns them as the low bits of the result.
// It loads the eight bytes at the read position at once when the buffer's
// capacity makes them addressable — a simulator inbox slot always does —
// and gathers the remaining bytes one by one otherwise. Bits past the
// field, and bytes past len(buf), are masked off.
func (r *Reader) ReadBits(n int) (uint64, error) {
	// The inlined common case: a field of at most 56 bits lies inside the
	// eight bytes starting at its first byte.
	if byteIdx := r.pos >> 3; uint(n) <= 56 && r.pos+n <= r.nbits && byteIdx+8 <= cap(r.buf) {
		v := binary.LittleEndian.Uint64(r.buf[byteIdx:byteIdx+8]) >> uint(r.pos&7)
		r.pos += n
		return v & (1<<uint(n) - 1), nil
	}
	return r.readBits(n)
}

// readBits is ReadBits for wide fields and buffer tails.
func (r *Reader) readBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("wire: ReadBits width %d out of range [0,64]", n)
	}
	if r.pos+n > r.nbits {
		return 0, fmt.Errorf("%w: want %d bits, have %d", ErrShortBuffer, n, r.nbits-r.pos)
	}
	if n == 0 {
		return 0, nil
	}
	byteIdx, bitIdx := r.pos>>3, uint(r.pos&7)
	var word uint64
	if byteIdx+8 <= cap(r.buf) {
		word = binary.LittleEndian.Uint64(r.buf[byteIdx : byteIdx+8])
	} else {
		last := (r.pos + n - 1) >> 3
		for i := byteIdx; i <= last && i < byteIdx+8; i++ {
			word |= uint64(r.buf[i]) << (8 * uint(i-byteIdx))
		}
	}
	v := word >> bitIdx
	if n+int(bitIdx) > 64 {
		// The field's last bits sit in a ninth byte, inside len(buf).
		v |= uint64(r.buf[byteIdx+8]) << (64 - bitIdx)
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	r.pos += n
	return v, nil
}

// ReadBool consumes a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadUint consumes a value written by WriteUint with the same maxValue.
func (r *Reader) ReadUint(maxValue uint64) (uint64, error) {
	return r.ReadBits(BitsFor(maxValue))
}

// ReadInt consumes a value written by WriteInt with the same maxAbs.
func (r *Reader) ReadInt(maxAbs int64) (int64, error) {
	zz, err := r.ReadBits(BitsFor(2 * uint64(maxAbs)))
	if err != nil {
		return 0, err
	}
	return int64(zz>>1) ^ -int64(zz&1), nil
}
