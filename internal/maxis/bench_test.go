package maxis

import (
	"fmt"
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// coldSolveGraphs builds k graphs of the serving benchmark's cold-solve
// shape: gnp n = 2000, p = 0.004, weights in [1, n²].
func coldSolveGraphs(k int) []*graph.Graph {
	gs := make([]*graph.Graph, k)
	for i := range gs {
		seed := uint64(i + 1)
		gs[i] = gen.Weighted(gen.GNP(2000, 0.004, seed), gen.PolyWeights(2), seed)
	}
	return gs
}

// BenchmarkTheorem2Cold is one uncached Theorem 2 solve (ε = 0.5) of the
// cold-solve shape, per worker count: the round loop's rung of the
// benchmark ladder. Each iteration solves a different graph, as every cold
// request does, so the simulator's recycled state, process arrays and
// message slots are exercised across phase and graph boundaries.
func BenchmarkTheorem2Cold(b *testing.B) {
	gs := coldSolveGraphs(8)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Theorem2(gs[i%len(gs)], 0.5, Config{Seed: uint64(i + 1), Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
