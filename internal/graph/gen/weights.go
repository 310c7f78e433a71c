package gen

import (
	"math/rand/v2"

	"distmwis/internal/graph"
)

// A WeightFn assigns weights to the n nodes of a graph. Implementations must
// be deterministic in (n, seed) and return strictly positive weights, per
// the paper's model (weights up to W = poly(n)).
type WeightFn func(n int, seed uint64) []int64

// UnitWeights assigns weight 1 to every node (the unweighted case).
func UnitWeights(n int, _ uint64) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// UniformWeights assigns independent uniform weights in [1, maxW].
func UniformWeights(maxW int64) WeightFn {
	return func(n int, seed uint64) []int64 {
		r := rng(seed)
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + r.Int64N(maxW)
		}
		return w
	}
}

// PolyWeights assigns uniform weights in [1, n^k] — the paper's "W can be as
// high as poly(n)" regime that makes the log W factor of the Bar-Yehuda et
// al. baseline expensive.
func PolyWeights(k int) WeightFn {
	return func(n int, seed uint64) []int64 {
		maxW := int64(1)
		for i := 0; i < k; i++ {
			maxW *= int64(n)
		}
		return UniformWeights(maxW)(n, seed)
	}
}

// ExponentialSpreadWeights assigns weight 2^(i mod levels) to a random
// permutation of nodes, producing a weight distribution spanning many binary
// scales. This is the adversarial regime for weight-scale algorithms.
func ExponentialSpreadWeights(levels int) WeightFn {
	return func(n int, seed uint64) []int64 {
		r := rng(seed)
		w := make([]int64, n)
		perm := r.Perm(n)
		for i, p := range perm {
			w[p] = int64(1) << uint(i%levels)
		}
		return w
	}
}

// SkewedWeights gives a fraction heavyFrac of nodes weight heavy and the
// rest weight 1 — the Claim 1 / Claim 2 split (V_high vs V_low) from the
// sparsification analysis in Section 4.2.
func SkewedWeights(heavyFrac float64, heavy int64) WeightFn {
	return func(n int, seed uint64) []int64 {
		r := rng(seed)
		w := make([]int64, n)
		numHeavy := int(float64(n) * heavyFrac)
		perm := r.Perm(n)
		for i, p := range perm {
			if i < numHeavy {
				w[p] = heavy
			} else {
				w[p] = 1
			}
		}
		return w
	}
}

// Weighted applies fn to g and returns a reweighted copy, which keeps the
// fresh vector fn returns.
func Weighted(g *graph.Graph, fn WeightFn, seed uint64) *graph.Graph {
	return g.WithOwnedWeights(fn(g.N(), seed))
}

// RandomIDs relabels the graph's identifiers with distinct random values in
// [1, idSpace], modelling the paper's assumption of arbitrary unique
// O(log n)-bit identifiers (not necessarily 1..n). idSpace must be >= n.
func RandomIDs(g *graph.Graph, idSpace uint64, seed uint64) *graph.Graph {
	n := g.N()
	r := rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
	used := make(map[uint64]bool, n)
	ids := make([]uint64, n)
	for v := 0; v < n; v++ {
		for {
			id := 1 + r.Uint64N(idSpace)
			if !used[id] {
				used[id] = true
				ids[v] = id
				break
			}
		}
	}
	// Rebuild with new ids: Graph is immutable, so copy topology via builder.
	b := graph.NewBuilder(n)
	b.SetWeights(g.Weights())
	for v := 0; v < n; v++ {
		b.SetID(v, ids[v])
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				b.AddEdge(v, int(u))
			}
		}
	}
	return b.MustBuild()
}
