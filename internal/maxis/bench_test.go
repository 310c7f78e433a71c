package maxis

import (
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// BenchmarkTheorem2Cold is one uncached Theorem 2 solve of the serving
// benchmark's cold-solve shape: gnp n = 2000, p = 0.004, weights in
// [1, n²], ε = 0.5, with one worker. Each iteration solves a
// different graph, as every cold request does, so the simulator's pooled
// state and messages are exercised across phase and graph boundaries.
func BenchmarkTheorem2Cold(b *testing.B) {
	const graphs = 8
	gs := make([]*graph.Graph, graphs)
	for i := range gs {
		seed := uint64(i + 1)
		gs[i] = gen.Weighted(gen.GNP(2000, 0.004, seed), gen.PolyWeights(2), seed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Theorem2(gs[i%graphs], 0.5, Config{Seed: uint64(i + 1), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
