package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

func buildTriangleWithTail(t *testing.T) *Graph {
	t.Helper()
	// 0-1-2 triangle, tail 2-3-4.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := buildTriangleWithTail(t)
	if g.N() != 5 || g.M() != 5 {
		t.Fatalf("n=%d m=%d, want 5,5", g.N(), g.M())
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3 (node 2)", g.MaxDegree())
	}
	wantDeg := []int{2, 2, 3, 2, 1}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if !g.HasEdge(0, 2) || g.HasEdge(0, 3) {
		t.Error("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildDedupesParallelEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1 after dedup", g.M())
	}
}

func TestBuildRejections(t *testing.T) {
	tests := []struct {
		name string
		prep func(b *Builder)
	}{
		{name: "self-loop", prep: func(b *Builder) { b.AddEdge(1, 1) }},
		{name: "out-of-range", prep: func(b *Builder) { b.AddEdge(0, 7) }},
		{name: "negative-weight", prep: func(b *Builder) { b.SetWeight(0, -3) }},
		{name: "duplicate-id", prep: func(b *Builder) { b.SetID(0, 5); b.SetID(1, 5) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder(3)
			tt.prep(b)
			if _, err := b.Build(); err == nil {
				t.Error("expected Build error")
			}
		})
	}
}

func TestBuilderSingleUse(t *testing.T) {
	b := NewBuilder(2)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("expected error on second Build")
	}
}

func TestWeightsAndIDs(t *testing.T) {
	b := NewBuilder(3)
	b.SetWeights([]int64{5, 7, 11})
	b.SetID(2, 999)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalWeight() != 23 || g.MaxWeight() != 11 {
		t.Errorf("TotalWeight=%d MaxWeight=%d, want 23, 11", g.TotalWeight(), g.MaxWeight())
	}
	if g.ID(2) != 999 || g.MaxID() != 999 {
		t.Errorf("ID(2)=%d MaxID=%d, want 999, 999", g.ID(2), g.MaxID())
	}
	w := g.Weights()
	w[0] = 100 // must not alias internal storage
	if g.Weight(0) != 5 {
		t.Error("Weights() aliases internal storage")
	}
}

func TestWithWeightsAllowsNonPositive(t *testing.T) {
	g := buildTriangleWithTail(t)
	g2 := g.WithWeights([]int64{0, -5, 1, 2, 3})
	if g2.Weight(1) != -5 {
		t.Errorf("Weight(1) = %d, want -5", g2.Weight(1))
	}
	if g.Weight(1) != 1 {
		t.Error("WithWeights mutated the original")
	}
	if g2.M() != g.M() {
		t.Error("WithWeights changed topology")
	}
}

func TestUnweightedAndUnitWeight(t *testing.T) {
	g := buildTriangleWithTail(t).WithWeights([]int64{2, 3, 4, 5, 6})
	if g.IsUnitWeight() {
		t.Error("IsUnitWeight true on weighted graph")
	}
	u := g.WithWeights([]int64{1, 1, 1, 1, 1})
	if !u.IsUnitWeight() || u.TotalWeight() != 5 {
		t.Error("IsUnitWeight false on unit weights")
	}
}

func TestInduce(t *testing.T) {
	g := buildTriangleWithTail(t)
	sub := g.Induce([]bool{true, false, true, true, false})
	if sub.G.N() != 3 {
		t.Fatalf("sub n = %d, want 3", sub.G.N())
	}
	// Kept nodes 0,2,3; surviving edges {0,2}, {2,3}.
	if sub.G.M() != 2 {
		t.Errorf("sub m = %d, want 2", sub.G.M())
	}
	if err := sub.G.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Weights and IDs carry over.
	for i, pv := range sub.ToParent {
		if sub.G.Weight(i) != g.Weight(int(pv)) || sub.G.ID(i) != g.ID(int(pv)) {
			t.Errorf("node %d metadata mismatch", i)
		}
	}
	// Lift round-trips.
	lifted := sub.LiftSet([]bool{true, false, true})
	want := []bool{true, false, false, true, false}
	for v := range want {
		if lifted[v] != want[v] {
			t.Errorf("lifted[%d] = %v, want %v", v, lifted[v], want[v])
		}
	}
}

func TestIndependentSetChecks(t *testing.T) {
	g := buildTriangleWithTail(t)
	tests := []struct {
		name        string
		set         []bool
		independent bool
		maximal     bool
	}{
		{name: "empty", set: []bool{false, false, false, false, false}, independent: true, maximal: false},
		{name: "adjacent-pair", set: []bool{true, true, false, false, false}, independent: false, maximal: false},
		{name: "independent-not-maximal", set: []bool{false, false, false, false, true}, independent: true, maximal: false},
		{name: "maximal", set: []bool{true, false, false, true, false}, independent: true, maximal: true},
		{name: "maximal2", set: []bool{false, true, false, false, true}, independent: true, maximal: false}, // node 3 not dominated? 3's nbrs: 2,4; 4 in set -> dominated; 0: nbrs 1,2; 1 in set -> dominated; 2: nbrs 0,1,3; 1 in set. So actually maximal.
	}
	// Fix the expectation computed in the comment above.
	tests[4].maximal = true
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.IsIndependentSet(tt.set); got != tt.independent {
				t.Errorf("IsIndependentSet = %v, want %v", got, tt.independent)
			}
			if got := g.IsMaximalIS(tt.set); got != tt.maximal {
				t.Errorf("IsMaximalIS = %v, want %v", got, tt.maximal)
			}
		})
	}
}

func TestSetWeightAndSize(t *testing.T) {
	g := buildTriangleWithTail(t).WithWeights([]int64{1, 2, 4, 8, 16})
	set := []bool{true, false, false, true, false}
	if got := g.SetWeight(set); got != 9 {
		t.Errorf("SetWeight = %d, want 9", got)
	}
	if got := SetSize(set); got != 2 {
		t.Errorf("SetSize = %d, want 2", got)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[3] != comp[4] {
		t.Error("components grouped wrong")
	}
	if comp[0] == comp[2] || comp[0] == comp[5] || comp[2] == comp[5] {
		t.Error("distinct components merged")
	}
}

func TestBFSDistances(t *testing.T) {
	g := buildTriangleWithTail(t)
	dist := g.BFSDistances(4)
	want := []int32{3, 3, 2, 1, 0}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestDegeneracy(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Graph
		want  int
	}{
		{name: "empty", build: func() *Graph { return NewBuilder(4).MustBuild() }, want: 0},
		{name: "path", build: func() *Graph {
			b := NewBuilder(5)
			for v := 0; v < 4; v++ {
				b.AddEdge(v, v+1)
			}
			return b.MustBuild()
		}, want: 1},
		{name: "cycle", build: func() *Graph {
			b := NewBuilder(5)
			for v := 0; v < 5; v++ {
				b.AddEdge(v, (v+1)%5)
			}
			return b.MustBuild()
		}, want: 2},
		{name: "clique4", build: func() *Graph {
			b := NewBuilder(4)
			for u := 0; u < 4; u++ {
				for v := u + 1; v < 4; v++ {
					b.AddEdge(u, v)
				}
			}
			return b.MustBuild()
		}, want: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := tt.build()
			d, order := g.Degeneracy()
			if d != tt.want {
				t.Errorf("degeneracy = %d, want %d", d, tt.want)
			}
			if g.N() > 0 && len(order) != g.N() {
				t.Errorf("order covers %d of %d nodes", len(order), g.N())
			}
			// Verify the defining property: each node has <= d neighbours
			// later in the order.
			pos := make([]int, g.N())
			for i, v := range order {
				pos[v] = i
			}
			for i, v := range order {
				later := 0
				for _, u := range g.Neighbors(int(v)) {
					if pos[u] > i {
						later++
					}
				}
				if later > d {
					t.Errorf("node %d has %d later neighbours > degeneracy %d", v, later, d)
				}
			}
		})
	}
}

func TestArboricityBoundsOnKnownGraphs(t *testing.T) {
	// Tree: α = 1. Clique K5: α = ceil(10/4) = 3.
	tree := NewBuilder(8)
	for v := 1; v < 8; v++ {
		tree.AddEdge(v, (v-1)/2)
	}
	tg := tree.MustBuild()
	if lo, hi := tg.ArboricityLowerBound(), tg.ArboricityUpperBound(); lo != 1 || hi != 1 {
		t.Errorf("tree bounds [%d,%d], want [1,1]", lo, hi)
	}

	k5 := NewBuilder(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5.AddEdge(u, v)
		}
	}
	kg := k5.MustBuild()
	lo, hi := kg.ArboricityLowerBound(), kg.ArboricityUpperBound()
	if lo > 3 || hi < 3 {
		t.Errorf("K5 bounds [%d,%d] must bracket α=3", lo, hi)
	}
	if lo != 3 {
		t.Errorf("K5 Nash-Williams lower bound = %d, want 3", lo)
	}
}

func TestDecomposeForests(t *testing.T) {
	// K6 has degeneracy 5; verify edge partition into forests covering all
	// edges.
	b := NewBuilder(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	forests := g.DecomposeForests()
	total := 0
	for i, f := range forests {
		if !EdgeListIsForest(g.N(), f) {
			t.Errorf("forest %d contains a cycle", i)
		}
		total += len(f)
	}
	if total != g.M() {
		t.Errorf("forests cover %d edges, want %d", total, g.M())
	}
	if len(forests) > g.ArboricityUpperBound() {
		t.Errorf("%d forests exceeds degeneracy bound %d", len(forests), g.ArboricityUpperBound())
	}
}

// TestQuickInduceConsistency: induced subgraphs of random graphs validate,
// preserve adjacency exactly, and lift sets faithfully.
func TestQuickInduceConsistency(t *testing.T) {
	f := func(edges [][2]uint8, keepMask []bool) bool {
		const n = 24
		b := NewBuilder(n)
		for _, e := range edges {
			u, v := int(e[0])%n, int(e[1])%n
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		keep := make([]bool, n)
		for i := range keep {
			if i < len(keepMask) {
				keep[i] = keepMask[i]
			}
		}
		sub := g.Induce(keep)
		if sub.G.Validate() != nil {
			return false
		}
		// Every subgraph edge must exist in the parent, and vice versa for
		// kept pairs.
		for i := 0; i < sub.G.N(); i++ {
			for _, j := range sub.G.Neighbors(i) {
				if !g.HasEdge(int(sub.ToParent[i]), int(sub.ToParent[j])) {
					return false
				}
			}
		}
		for u := 0; u < n; u++ {
			if !keep[u] {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if keep[v] && !sub.G.HasEdge(int(sub.FromParent[u]), int(sub.FromParent[v])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickDegeneracyBoundsArboricity: on random graphs the Nash-Williams
// lower bound never exceeds the degeneracy upper bound, and forest
// decomposition always succeeds within the upper bound.
func TestQuickDegeneracyBoundsArboricity(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		const n = 20
		b := NewBuilder(n)
		for _, e := range edges {
			u, v := int(e[0])%n, int(e[1])%n
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		lo, hi := g.ArboricityLowerBound(), g.ArboricityUpperBound()
		if lo > hi {
			return false
		}
		forests := g.DecomposeForests()
		if len(forests) > hi {
			return false
		}
		total := 0
		for _, f := range forests {
			if !EdgeListIsForest(n, f) {
				return false
			}
			total += len(f)
		}
		return total == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// checkReverseArcs requires that every arc a from v to u has a reverse arc
// from u back to v, and that reversing twice is the identity.
func checkReverseArcs(t *testing.T, g *Graph) {
	t.Helper()
	rev := make([]int32, 2*g.M())
	g.FillReverseArcs(rev, make([]int32, g.N()))
	if len(rev) != 2*g.M() {
		t.Fatalf("%d reverse arcs for %d edges", len(rev), g.M())
	}
	for v := 0; v < g.N(); v++ {
		lo, hi := g.Arcs(v)
		for a := lo; a < hi; a++ {
			u := int(g.adj[a])
			ulo, uhi := g.Arcs(u)
			r := int(rev[a])
			if r < ulo || r >= uhi || int(g.adj[r]) != v || int(rev[r]) != a {
				t.Fatalf("arc %d (%d→%d): reverse %d is not an arc from %d back to %d", a, v, u, r, u, v)
			}
		}
	}
}

// TestReverseArcs checks the table on every kind of graph construction:
// Build, weight-only and edge edits, Induce, FromCanonical and component
// splits.
func TestReverseArcs(t *testing.T) {
	g := buildTriangleWithTail(t)
	checkReverseArcs(t, g)
	weighted, _, err := g.ApplyEdit(Edit{Weights: []WeightUpdate{{V: 1, W: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	checkReverseArcs(t, weighted)
	checkReverseArcs(t, g.Induce([]bool{true, true, true, true, true}).G)
	edited, _, err := g.ApplyEdit(Edit{AddEdges: [][2]int32{{0, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	checkReverseArcs(t, edited)
	sub := g.Induce([]bool{true, false, true, true, true}).G
	checkReverseArcs(t, sub)
	canon, err := FromCanonical(g.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	checkReverseArcs(t, canon)
	for _, c := range g.SplitComponents() {
		checkReverseArcs(t, c.G)
	}
}

// TestFromOrderedEdges builds a graph from its edges in (larger, smaller)
// endpoint order and requires the Builder's graph; lists out of order, out
// of range, with a loop or a duplicate, or of odd length are refused.
func TestFromOrderedEdges(t *testing.T) {
	edges := []int32{0, 1, 0, 2, 1, 2, 2, 4, 1, 5}
	g, err := FromOrderedEdges(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(6)
	for i := 0; i < len(edges); i += 2 {
		b.AddEdge(int(edges[i]), int(edges[i+1]))
	}
	if want := b.MustBuild(); !bytes.Equal(g.Canonical(), want.Canonical()) || g.MaxDegree() != want.MaxDegree() {
		t.Errorf("FromOrderedEdges built %v, want the Builder's graph", g.Canonical())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	for name, bad := range map[string][]int32{
		"out of order": {0, 2, 0, 1},
		"out of range": {0, 6},
		"negative":     {-1, 2},
		"loop":         {1, 1},
		"duplicate":    {0, 1, 0, 1},
		"odd length":   {0, 1, 2},
	} {
		if _, err := FromOrderedEdges(6, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
