package graph

import "math/bits"

// Bitset is a fixed-capacity set of small integers packed 64 to a word. It
// replaces the per-node (and per-port) []bool flag vectors on the
// simulator's hot paths: an 8× denser footprint keeps 10M-node flag scans
// inside the cache hierarchy, and a word-at-a-time Count makes the
// "any survivor?" checks of the dense MIS/peeling phases O(n/64).
//
// A Bitset is not safe for concurrent mutation: two Set calls on indices
// sharing a word race (unlike a []bool, where distinct indices are distinct
// memory locations). Confine mutation to one goroutine — which is exactly
// the discipline the congest round barrier and per-process state already
// follow — and treat concurrent use as read-only.
type Bitset []uint64

// NewBitset returns a set able to hold indices [0, n).
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Get reports whether index i is in the set.
func (b Bitset) Get(i int) bool {
	return b[i>>6]&(1<<uint(i&63)) != 0
}

// Set adds index i.
func (b Bitset) Set(i int) {
	b[i>>6] |= 1 << uint(i&63)
}

// Unset removes index i.
func (b Bitset) Unset(i int) {
	b[i>>6] &^= 1 << uint(i&63)
}

// SetFirst adds every index in [0, n). Bits at n and above are cleared, so
// SetFirst(n) on a fresh or reused set leaves exactly [0, n) present.
func (b Bitset) SetFirst(n int) {
	full := n >> 6
	for w := 0; w < full; w++ {
		b[w] = ^uint64(0)
	}
	if full < len(b) {
		if rem := n & 63; rem > 0 {
			b[full] = (1 << uint(rem)) - 1
			full++
		}
	}
	for w := full; w < len(b); w++ {
		b[w] = 0
	}
}

// Reset removes every index.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of indices in the set.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}
