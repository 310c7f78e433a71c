package graph

import "slices"

// The weight-order kernel: every answer the serving tiers build or heal on
// the host follows one local rule — heavier nodes first, and on a conflict
// the endpoint ranked later withdraws. A node that loses charges its weight
// to a heavier (or equally heavy, lower-ID) neighbour that stays, which is
// the local-ratio argument behind the (Δ+1) bound of the greedy answer.

// Before reports whether u precedes v in the weight order: heavier first,
// then lower identifier. Identifiers are unique, so the order is total and
// does not depend on node indexing.
func (g *Graph) Before(u, v int) bool {
	if wu, wv := g.weights[u], g.weights[v]; wu != wv {
		return wu > wv
	}
	return g.ids[u] < g.ids[v]
}

// WeightOrder returns every node, sorted by Before.
func (g *Graph) WeightOrder() []int32 {
	order := make([]int32, g.N())
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case a == b:
			return 0
		case g.Before(int(a), int(b)):
			return -1
		}
		return 1
	})
	return order
}

// Extend admits, in turn, each non-member of order[from:] that has no
// neighbour in set, examining at most budget entries. It returns the
// cursor to resume from (len(order) once the pass is complete) and how many
// nodes joined. An independent set stays independent and never loses
// weight; a complete pass over WeightOrder leaves it maximal.
func (g *Graph) Extend(set []bool, order []int32, from, budget int) (next, added int) {
	end := len(order)
	if budget < end-from {
		end = from + budget
	}
	for next = from; next < end; next++ {
		v := order[next]
		if set[v] || g.hasNeighborIn(int(v), set) {
			continue
		}
		set[v] = true
		added++
	}
	return next, added
}

func (g *Graph) hasNeighborIn(v int, set []bool) bool {
	for _, u := range g.Neighbors(v) {
		if set[u] {
			return true
		}
	}
	return false
}

// Greedy is the weight-ordered greedy independent set and its weight: Extend
// from the empty set over WeightOrder. It is maximal and a
// (Δ+1)-approximation, and costs O(n log n + m).
func (g *Graph) Greedy() ([]bool, int64) {
	set := make([]bool, g.N())
	g.Extend(set, g.WeightOrder(), 0, g.N())
	return set, g.SetWeight(set)
}

// Withdraw resolves the edge {u, v} in set: when both endpoints are
// members, the one Before ranks later leaves set and is returned. It
// returns -1 when the edge carries no conflict.
func (g *Graph) Withdraw(set []bool, u, v int) int {
	if !set[u] || !set[v] {
		return -1
	}
	if g.Before(u, v) {
		u = v
	}
	set[u] = false
	return u
}

// Members lists the indices of set's members in ascending order (nil when
// set is empty), allocated once at exactly the member count.
func Members(set []bool) []int32 {
	n := SetSize(set)
	if n == 0 {
		return nil
	}
	out := make([]int32, 0, n)
	for v, in := range set {
		if in {
			out = append(out, int32(v))
		}
	}
	return out
}

// FromMembers is the inverse of Members over n nodes. Indices outside
// [0, n) are ignored.
func FromMembers(idx []int32, n int) []bool {
	set := make([]bool, n)
	for _, v := range idx {
		if v >= 0 && int(v) < n {
			set[v] = true
		}
	}
	return set
}
