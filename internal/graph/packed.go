package graph

import "encoding/binary"

// PackedSet is a node set as a long-lived store keeps it: its members in
// ascending order as uvarint gaps, the gap before member m being m−p−1
// for the previous member p (p = −1 before the first). A gap below 2²⁸
// takes at most four bytes, so on graphs of fewer than 2²⁸ nodes a packed
// set is never larger than its []int32, and members at most 128 apart take
// one byte each. The constructors allocate exactly the bytes the set
// needs. A PackedSet is immutable, so copies share their bytes; the zero
// value is the empty set.
type PackedSet struct {
	n   int
	buf []byte
}

// PackSet packs the members of set.
func PackSet(set []bool) PackedSet {
	n, size, prev := 0, 0, -1
	for v, in := range set {
		if in {
			n, size, prev = n+1, size+uvarintLen(uint64(v-prev-1)), v
		}
	}
	if n == 0 {
		return PackedSet{}
	}
	buf, prev := make([]byte, 0, size), -1
	for v, in := range set {
		if in {
			buf, prev = binary.AppendUvarint(buf, uint64(v-prev-1)), v
		}
	}
	return PackedSet{n: n, buf: buf}
}

// PackMembers packs a set given by its member indices, which must be
// non-negative and strictly ascending, as Members returns them.
func PackMembers(idx []int32) PackedSet {
	if len(idx) == 0 {
		return PackedSet{}
	}
	size, prev := 0, -1
	for _, v := range idx {
		if int(v) <= prev {
			panic("graph: PackMembers needs strictly ascending non-negative members")
		}
		size, prev = size+uvarintLen(uint64(int(v)-prev-1)), int(v)
	}
	buf, prev := make([]byte, 0, size), -1
	for _, v := range idx {
		buf, prev = binary.AppendUvarint(buf, uint64(int(v)-prev-1)), int(v)
	}
	return PackedSet{n: len(idx), buf: buf}
}

// Len is the number of members.
func (p PackedSet) Len() int { return p.n }

// Size is the number of bytes the encoded members occupy.
func (p PackedSet) Size() int { return len(p.buf) }

// Members decodes the set into its ascending member indices, allocated at
// exactly Len (nil when the set is empty, as Members returns).
func (p PackedSet) Members() []int32 {
	if p.n == 0 {
		return nil
	}
	out := make([]int32, p.n)
	v, buf := -1, p.buf
	for i := range out {
		gap, k := binary.Uvarint(buf)
		v += int(gap) + 1
		out[i], buf = int32(v), buf[k:]
	}
	return out
}
