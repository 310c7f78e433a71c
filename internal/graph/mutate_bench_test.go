package graph_test

import (
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// islands builds comps disjoint components of k nodes each — a gnp(k, p)
// graph plus a Hamiltonian path, so every component is connected — with
// poly2 weights. At 16 × 150 it is the mutable-graph serving shape.
func islands(comps, k int, p float64, seed uint64) *graph.Graph {
	n := comps * k
	b := graph.NewBuilder(n)
	for c := 0; c < comps; c++ {
		off := c * k
		part := gen.GNP(k, p, seed+uint64(c)+1)
		for v := 0; v < k; v++ {
			if v+1 < k {
				b.AddEdge(off+v, off+v+1)
			}
			for _, u := range part.Neighbors(v) {
				if int(u) > v {
					b.AddEdge(off+v, off+int(u))
				}
			}
		}
	}
	b.SetWeights(gen.PolyWeights(2)(n, seed))
	return b.MustBuild()
}

// BenchmarkApplyEdit times one PATCH-sized edit on the 16 × 150 shape
// (n = 2400): a single weight update, and an edge toggled on and off
// inside one component.
func BenchmarkApplyEdit(b *testing.B) {
	g := islands(16, 150, 0.04, 1)
	b.Run("weight", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := graph.Edit{Weights: []graph.WeightUpdate{{V: int32(i % g.N()), W: int64(1 + i)}}}
			if _, _, err := g.ApplyEdit(e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edge-toggle", func(b *testing.B) {
		u, v := 3*150+7, 3*150+90
		for g.HasEdge(u, v) {
			v++
		}
		pair := [][2]int32{{int32(u), int32(v)}}
		add, remove := graph.Edit{AddEdges: pair}, graph.Edit{RemoveEdges: pair}
		cur := g
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := add
			if i%2 == 1 {
				e = remove
			}
			ng, _, err := cur.ApplyEdit(e)
			if err != nil {
				b.Fatal(err)
			}
			cur = ng
		}
	})
}

// BenchmarkSpliceCanonical times deriving a PATCHed version's canonical
// form from its parent's on the 16 × 150 shape: a single weight update,
// and one added edge inside one component. The full encode it replaces is
// the "encode" case.
func BenchmarkSpliceCanonical(b *testing.B) {
	g := islands(16, 150, 0.04, 1)
	form := g.CanonicalForm()
	u, v := 3*150+7, 3*150+90
	for g.HasEdge(u, v) {
		v++
	}
	for _, c := range []struct {
		name string
		edit graph.Edit
	}{
		{"weight", graph.Edit{Weights: []graph.WeightUpdate{{V: 1000, W: 77}}}},
		{"edge", graph.Edit{AddEdges: [][2]int32{{int32(u), int32(v)}}}},
	} {
		ng, rep, err := g.ApplyEdit(c.edit)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spliced = ng.SpliceCanonical(form, rep)
			}
		})
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spliced = g.CanonicalForm()
		}
	})
}

// spliced keeps the benchmarked result live.
var spliced *graph.CanonicalForm
