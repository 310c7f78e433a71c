package graph_test

import (
	"slices"
	"testing"

	"distmwis/internal/graph"
)

// FuzzPackedSet builds a []bool from runs, one a byte: the top bit is the
// run's value and the low four bits its length as a power of two, so long
// runs of non-members give gaps of every uvarint width the fuzzer can
// reach. It checks that the packed set decodes to exactly Members' output
// in ascending order, whether packed from the flags or from the members,
// that its count is right, and that it never takes more than four bytes a
// member.
func FuzzPackedSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00, 0x80, 0x81, 0x03, 0x80})
	f.Add([]byte{0x0f, 0x0f, 0x0f, 0x0f, 0x80, 0x07, 0x80, 0x0e, 0x0e, 0x8f})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxNodes = 1 << 18
		var set []bool
		for _, b := range data {
			run := 1 << (b & 0x0f)
			if len(set)+run > maxNodes {
				break
			}
			for range run {
				set = append(set, b&0x80 != 0)
			}
		}
		want := graph.Members(set)
		for _, p := range []graph.PackedSet{graph.PackSet(set), graph.PackMembers(want)} {
			got := p.Members()
			if !slices.Equal(got, want) {
				t.Fatalf("decoded %d members, want %d (first difference in %v vs %v)", len(got), len(want), head(got), head(want))
			}
			if !slices.IsSorted(got) {
				t.Fatal("decoded members are not ascending")
			}
			if p.Len() != len(want) || p.Len() != graph.SetSize(set) {
				t.Fatalf("Len() = %d, want %d", p.Len(), len(want))
			}
			if p.Size() > 4*p.Len() {
				t.Fatalf("%d members take %d bytes, over 4 a member", p.Len(), p.Size())
			}
		}
	})
}

func head(s []int32) []int32 { return s[:min(len(s), 8)] }

// TestPackedSetSizes pins the encoding's widths: one byte for each member
// after a gap below 128, up to four below 2²⁸, and no bytes for the empty
// set, which decodes to nil as Members returns it.
func TestPackedSetSizes(t *testing.T) {
	for _, tc := range []struct {
		members []int32
		size    int
	}{
		{nil, 0},
		{[]int32{0}, 1},
		{[]int32{0, 1, 2, 3}, 4},
		{[]int32{127, 255}, 2},
		{[]int32{128}, 2},
		{[]int32{1 << 14}, 3},
		{[]int32{1<<28 - 1}, 4},
		{[]int32{5, 1<<21 + 6}, 1 + 4},
	} {
		p := graph.PackMembers(tc.members)
		if p.Size() != tc.size || p.Len() != len(tc.members) {
			t.Errorf("%v: size %d and len %d, want %d and %d", tc.members, p.Size(), p.Len(), tc.size, len(tc.members))
		}
		if got := p.Members(); !slices.Equal(got, tc.members) || (got == nil) != (tc.members == nil) {
			t.Errorf("%v decodes to %v", tc.members, got)
		}
	}
}
