package graph_test

import (
	"math/rand/v2"
	"testing"

	"distmwis/internal/exact"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// tieGraphs have few distinct weights, so ties are common, and identifiers
// that do not ascend with index, so an index tie-break and an identifier
// tie-break disagree.
func tieGraphs() []*graph.Graph {
	var gs []*graph.Graph
	for seed := uint64(1); seed <= 3; seed++ {
		planted, _ := gen.PlantedIS(200, 30, 3, 0.04, seed)
		gs = append(gs, planted,
			gen.RandomIDs(gen.Weighted(gen.GNP(200, 0.04, seed), gen.UniformWeights(3), seed), 1<<20, seed))
	}
	return gs
}

// healAll resolves every conflicting edge of set with the withdraw rule.
func healAll(g *graph.Graph, set []bool) {
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			g.Withdraw(set, v, int(u))
		}
	}
}

// extendSliced runs one complete Extend pass over order in budget-sized
// slices, checking after each that set stays independent and never loses
// weight.
func extendSliced(t *testing.T, g *graph.Graph, set []bool, order []int32, budget int) {
	t.Helper()
	for pos := 0; pos < len(order); {
		before := g.SetWeight(set)
		next, _ := g.Extend(set, order, pos, budget)
		if next <= pos || next-pos > budget {
			t.Fatalf("Extend(from %d, budget %d) resumed at %d", pos, budget, next)
		}
		if !g.IsIndependentSet(set) {
			t.Fatalf("Extend broke independence at budget %d", budget)
		}
		if w := g.SetWeight(set); w < before {
			t.Fatalf("Extend lowered weight %d -> %d", before, w)
		}
		pos = next
	}
}

// TestGreedyFollowsIDOrder: on unit weights the tie-break alone decides,
// so greedy admits nodes in identifier order whatever their indices.
func TestGreedyFollowsIDOrder(t *testing.T) {
	for _, tc := range []struct {
		ids  []uint64
		want []bool
	}{
		{[]uint64{1, 2, 3, 4, 5}, []bool{true, false, true, false, true}},
		{[]uint64{5, 1, 4, 2, 3}, []bool{false, true, false, true, false}},
	} {
		b := graph.NewBuilder(5)
		for v := 0; v < 5; v++ {
			b.SetID(v, tc.ids[v])
			if v > 0 {
				b.AddEdge(v-1, v)
			}
		}
		g := b.MustBuild()
		if set, _ := g.Greedy(); !graph.SameSet(set, tc.want) {
			t.Errorf("ids %v: greedy %v, want %v", tc.ids, set, tc.want)
		}
	}
}

// TestExtendPreservesIndependenceAndWeight: from healed random sets and
// from the empty set, Extend in any budget slicing never breaks
// independence or loses weight, reaches the same maximal set as one
// unbudgeted pass, and from the empty set that set is Greedy's.
func TestExtendPreservesIndependenceAndWeight(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	for i, g := range tieGraphs() {
		n := g.N()
		order := g.WeightOrder()
		greedy, weight := g.Greedy()
		if weight != g.SetWeight(greedy) || !g.IsMaximalIS(greedy) {
			t.Fatalf("graph %d: Greedy is not a maximal independent set of its reported weight", i)
		}
		for trial := 0; trial < 4; trial++ {
			start := make([]bool, n)
			if trial > 0 {
				for v := range start {
					start[v] = r.IntN(3) == 0
				}
				healAll(g, start)
			}
			if !g.IsIndependentSet(start) {
				t.Fatalf("graph %d: withdraw rule left a conflict", i)
			}
			want := append([]bool(nil), start...)
			g.Extend(want, order, 0, n)
			if !g.IsMaximalIS(want) {
				t.Fatalf("graph %d: a full Extend pass is not maximal", i)
			}
			if trial == 0 && !graph.SameSet(want, greedy) {
				t.Fatalf("graph %d: Extend from the empty set differs from Greedy", i)
			}
			for _, budget := range []int{1, 7, n} {
				got := append([]bool(nil), start...)
				extendSliced(t, g, got, order, budget)
				if !graph.SameSet(got, want) {
					t.Fatalf("graph %d trial %d: budget %d reached a different set", i, trial, budget)
				}
			}
		}
	}
}

// TestGreedyMatchesExactReference: where identifiers ascend with index and
// weights are positive, the ID and index tie-breaks coincide, so Greedy is
// exact.GreedyMWIS's set.
func TestGreedyMatchesExactReference(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"gnp-uniform3": gen.Weighted(gen.GNP(200, 0.05, 3), gen.UniformWeights(3), 3),
		"grid-poly2":   gen.Weighted(gen.Grid(12, 12), gen.PolyWeights(2), 5),
		"tree-unit":    gen.RandomTree(150, 9),
		"clique":       gen.Clique(20),
		"star":         gen.Star(30),
	} {
		set, weight := g.Greedy()
		refWeight, ref := exact.GreedyMWIS(g)
		if weight != refWeight || !graph.SameSet(set, ref) {
			t.Errorf("%s: Greedy weight %d, exact.GreedyMWIS %d", name, weight, refWeight)
		}
	}
}

// FuzzWeightOrder builds a small graph with arbitrary identifiers and
// weights, heals a random set with the withdraw rule, and checks that the
// result is independent and that Extend, in any budget slicing, completes
// it to the same maximal set as one unbudgeted pass.
func FuzzWeightOrder(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 1, 2, 2, 3, 3, 4, 0xff, 0x0f, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{12, 1, 7, 7, 7, 7, 2, 0, 0xaa, 0x55, 4, 9, 9, 4, 1, 11, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, budget := 1+int(data[0])%24, 1+int(data[1])%8
		data = data[2:]
		at := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetWeight(v, int64(at(v)%4))
			b.SetID(v, uint64(at(v+n))<<8|uint64(v)) // unique, not index-ordered
		}
		for i := 0; i+1 < len(data); i += 2 {
			if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.MustBuild()

		set := make([]bool, n)
		for v := range set {
			set[v] = at(v+2*n)&1 == 1
		}
		healAll(g, set)
		if !g.IsIndependentSet(set) {
			t.Fatal("withdraw rule left a conflict")
		}
		order := g.WeightOrder()
		want := append([]bool(nil), set...)
		if next, _ := g.Extend(want, order, 0, n); next != n {
			t.Fatalf("unbudgeted Extend stopped at %d of %d", next, n)
		}
		extendSliced(t, g, set, order, budget)
		if !graph.SameSet(set, want) {
			t.Fatalf("budget %d reached a different set than one pass", budget)
		}
		if !g.IsMaximalIS(set) {
			t.Fatal("a full Extend pass is not maximal")
		}
	})
}
