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
// inbox slots are exercised across phase and graph boundaries.
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

// BenchmarkTheorem3Cold is one uncached Theorem 3 solve (Algorithm 6 over
// the Theorem 2 pipeline, ε = 0.5, α the degeneracy bound) of the
// cold-solve shape on one worker, a new graph each iteration as in
// BenchmarkTheorem2Cold.
func BenchmarkTheorem3Cold(b *testing.B) {
	gs := coldSolveGraphs(8)
	b.Run("workers=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Theorem3(gs[i%len(gs)], 0, 0.5, Config{Seed: uint64(i + 1), Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTheorem2Scale is one Theorem 2 solve (ε = 0.5) of gnp graphs of
// average degree 8 with 20,000 and 200,000 nodes, per worker count: the
// round loop's rung at sizes where a second worker can pay for its round
// barriers. Each iteration solves the same graph with a new seed.
func BenchmarkTheorem2Scale(b *testing.B) {
	for _, n := range []int{20_000, 200_000} {
		g := gen.Weighted(gen.GNP(n, 8/float64(n), 1), gen.PolyWeights(2), 1)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Theorem2(g, 0.5, Config{Seed: uint64(i + 1), Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// separateGNP builds count disjoint components of size nodes each: a gnp
// graph with p = 0.03 plus a path through its nodes, so each stays
// connected, with weights in [1, n²] over the whole graph.
func separateGNP(count, size int) *graph.Graph {
	b := graph.NewBuilder(count * size)
	for c := 0; c < count; c++ {
		off := c * size
		part := gen.GNP(size, 0.03, uint64(c+1))
		for v := 0; v < size; v++ {
			if v+1 < size {
				b.AddEdge(off+v, off+v+1)
			}
			for _, u := range part.Neighbors(v) {
				if int(u) > v {
					b.AddEdge(off+v, off+int(u))
				}
			}
		}
	}
	b.SetWeights(gen.PolyWeights(2)(count*size, 1))
	return b.MustBuild()
}

// BenchmarkSolveComponents is one uncached Theorem 2 solve (ε = 0.5, one
// worker) of a graph of many components, through SolveComponents with
// the components already split, as a graph_ref solve holds them, and
// through Solve on the whole graph: 150 components of 16 nodes and 16 of
// 150 (the mutate-ref shape).
func BenchmarkSolveComponents(b *testing.B) {
	for _, shape := range [][2]int{{150, 16}, {16, 150}} {
		g := separateGNP(shape[0], shape[1])
		parts := g.SplitComponents()
		cfg := Config{Seed: 1, Workers: 1}
		b.Run(fmt.Sprintf("%dx%d/components", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := SolveComponents("theorem2", g, parts, 0.5, 0, cfg, ComponentCache{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%dx%d/whole", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve("theorem2", g, 0.5, 0, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
