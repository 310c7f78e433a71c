package wire

import "testing"

// FuzzReaderRobust ensures readers never panic or read out of bounds on
// arbitrary buffers — messages in the simulator come from other nodes, and
// protocol decoders must fail cleanly on any payload.
func FuzzReaderRobust(f *testing.F) {
	f.Add([]byte{0xFF, 0x01}, 12, 7)
	f.Add([]byte{}, 0, 1)
	f.Add([]byte{0xAA, 0xBB, 0xCC}, 24, 64)
	f.Fuzz(func(t *testing.T, data []byte, nbits, width int) {
		if nbits < 0 {
			nbits = -nbits
		}
		if nbits > len(data)*8 {
			nbits = len(data) * 8
		}
		r := NewReader(data, nbits)
		for {
			w := width % 65
			if w < 0 {
				w = -w
			}
			if _, err := r.ReadBits(w); err != nil {
				break
			}
			if w == 0 {
				break // zero-width reads never exhaust the buffer
			}
		}
		if r.Remaining() < 0 {
			t.Fatalf("Remaining went negative: %d", r.Remaining())
		}
	})
}

// FuzzWriteReadMirror checks write→read symmetry for arbitrary values.
func FuzzWriteReadMirror(f *testing.F) {
	f.Add(uint64(0), uint64(1), int64(-5), int64(100), true)
	f.Add(uint64(1<<40), uint64(1<<41), int64(0), int64(1), false)
	f.Fuzz(func(t *testing.T, v, maxV uint64, s, maxAbs int64, b bool) {
		if maxV == 0 {
			maxV = 1
		}
		v %= maxV + 1
		if maxAbs <= 0 {
			maxAbs = 1
		}
		s %= maxAbs + 1
		var w Writer
		w.WriteUint(v, maxV)
		w.WriteInt(s, maxAbs)
		w.WriteBool(b)
		r := NewReader(w.Bytes(), w.Len())
		gv, err := r.ReadUint(maxV)
		if err != nil || gv != v {
			t.Fatalf("uint: got %d err %v, want %d", gv, err, v)
		}
		gs, err := r.ReadInt(maxAbs)
		if err != nil || gs != s {
			t.Fatalf("int: got %d err %v, want %d", gs, err, s)
		}
		gb, err := r.ReadBool()
		if err != nil || gb != b {
			t.Fatalf("bool: got %v err %v, want %v", gb, err, b)
		}
		if r.Remaining() != 0 {
			t.Fatalf("remaining %d", r.Remaining())
		}
	})
}

// FuzzChecksumBurst verifies the CRC-8 guarantee the fault layer's
// corruption model relies on: flipping any burst of 1..ChecksumBits
// consecutive bits inside the covered payload always changes the checksum,
// so a corrupted message can never be mistaken for the original.
func FuzzChecksumBurst(f *testing.F) {
	f.Add([]byte{0x00}, 1, 0, 1)
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, 7, 8)
	f.Add([]byte{0xFF, 0x00, 0xFF}, 20, 13, 5)
	f.Fuzz(func(t *testing.T, data []byte, nbits, start, burst int) {
		if len(data) == 0 {
			return
		}
		if nbits < 1 {
			nbits = 1
		}
		if nbits > len(data)*8 {
			nbits = len(data) * 8
		}
		if burst < 1 {
			burst = 1
		}
		if burst > ChecksumBits {
			burst = ChecksumBits
		}
		if burst > nbits {
			burst = nbits
		}
		if start < 0 {
			start = -start
		}
		start %= nbits - burst + 1
		orig := Checksum(data, nbits)
		flipped := make([]byte, len(data))
		copy(flipped, data)
		for i := start; i < start+burst; i++ {
			flipped[i>>3] ^= 1 << uint(i&7)
		}
		if Checksum(flipped, nbits) == orig {
			t.Fatalf("burst of %d bits at %d (nbits %d) not detected", burst, start, nbits)
		}
		// And the checksum must ignore bits beyond nbits entirely.
		if nbits < len(data)*8 {
			tail := make([]byte, len(data))
			copy(tail, data)
			tail[nbits>>3] ^= 1 << uint(nbits&7)
			if Checksum(tail, nbits) != orig {
				t.Fatal("checksum depends on bits beyond nbits")
			}
		}
	})
}

// FuzzWriterRoundTrip drives one Writer through a sequence of messages,
// Reset between them. script is split into messages at 0xFF bytes; inside a
// message each field is a width byte (mod 65) followed by up to eight
// little-endian value bytes. Every message's field list is written
// 1+repeat%8 times, so long scripts push the payload past the inline
// buffer into the heap spill and later messages reuse a spilled writer.
func FuzzWriterRoundTrip(f *testing.F) {
	f.Add([]byte{8, 0xAB, 0xFF, 1, 1}, uint8(0))
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 63, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(7))
	f.Add([]byte{64, 0xFF, 0, 0, 0, 0, 0, 0, 0}, uint8(5))
	f.Add([]byte{3, 5, 0xFF, 64, 1, 1, 1, 1, 1, 1, 1, 1, 0xFF, 7, 0x7F}, uint8(4))
	f.Add([]byte{0, 0, 0xFF, 0xFF}, uint8(0))
	type field struct {
		width int
		value uint64
	}
	f.Fuzz(func(t *testing.T, script []byte, repeat uint8) {
		var w Writer
		for len(script) > 0 {
			var fields []field
			for len(script) > 0 && script[0] != 0xFF {
				width := int(script[0]) % 65
				script = script[1:]
				var v uint64
				for i := 0; i < 8 && len(script) > 0; i++ {
					v |= uint64(script[0]) << (8 * i)
					script = script[1:]
				}
				fields = append(fields, field{width, v})
			}
			if len(script) > 0 {
				script = script[1:] // the 0xFF separator
			}
			w.Reset()
			want := 0
			for rep := 0; rep <= int(repeat%8); rep++ {
				for _, fl := range fields {
					w.WriteBits(fl.value, fl.width)
					want += fl.width
				}
			}
			if w.Len() != want {
				t.Fatalf("Len %d, want %d", w.Len(), want)
			}
			buf := w.Bytes()
			if len(buf) != (w.Len()+7)/8 {
				t.Fatalf("len(Bytes()) = %d for %d bits", len(buf), w.Len())
			}
			if pad := w.Len() % 8; pad != 0 && buf[len(buf)-1]>>pad != 0 {
				t.Fatalf("padding bits of final byte %08b set (%d valid bits)", buf[len(buf)-1], pad)
			}
			r := NewReader(buf, w.Len())
			for rep := 0; rep <= int(repeat%8); rep++ {
				for i, fl := range fields {
					want := fl.value
					if fl.width < 64 {
						want &= 1<<fl.width - 1
					}
					got, err := r.ReadBits(fl.width)
					if err != nil || got != want {
						t.Fatalf("repeat %d field %d (width %d): got %#x err %v, want %#x", rep, i, fl.width, got, err, want)
					}
				}
			}
			if r.Remaining() != 0 {
				t.Fatalf("%d bits left over", r.Remaining())
			}
		}
	})
}
