package maxis

import (
	"reflect"
	"slices"
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/mis"
)

// twoIslands builds a graph of two path components: 0..k-1 and k..n-1.
func twoIslands(k, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < k-1; v++ {
		b.AddEdge(v, v+1)
	}
	for v := k; v < n-1; v++ {
		b.AddEdge(v, v+1)
	}
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+(v*5)%11))
	}
	return b.MustBuild()
}

func incCfg() Config {
	return Config{Seed: 7, MIS: mis.Luby{}}
}

// A warm cache must answer every component without re-solving, and the
// cached answer must be bit-identical to the fresh one.
func TestSolveByComponentCacheHitBitIdentical(t *testing.T) {
	g := twoIslands(6, 14)
	cache := map[string][]int32{}
	cc := ComponentCache{
		Lookup: func(h string) ([]int32, bool) { s, ok := cache[h]; return s, ok },
		Store:  func(h string, set []int32, _ int64) { cache[h] = set },
	}
	fresh, st, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Components != 2 || st.Solved != 2 || st.Reused != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	warm, st, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Solved != 0 || st.Reused != 2 {
		t.Fatalf("warm stats = %+v", st)
	}
	if warm.Weight != fresh.Weight || !graph.SameSet(warm.Set, fresh.Set) {
		t.Fatal("cached answer differs from fresh solve")
	}
	if !g.IsIndependentSet(fresh.Set) {
		t.Fatal("component-wise union is not independent")
	}
}

// Mutating one component must leave the other's cache entry usable: after
// an edit confined to the second island, exactly one component re-solves.
func TestSolveByComponentPartialReuseAfterEdit(t *testing.T) {
	g := twoIslands(6, 14)
	cache := map[string][]int32{}
	cc := ComponentCache{
		Lookup: func(h string) ([]int32, bool) { s, ok := cache[h]; return s, ok },
		Store:  func(h string, set []int32, _ int64) { cache[h] = set },
	}
	if _, _, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), cc); err != nil {
		t.Fatal(err)
	}
	ng, _, err := g.ApplyEdit(graph.Edit{AddEdges: [][2]int32{{7, 12}}})
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := SolveByComponent("goodnodes", ng, 0.5, 0, incCfg(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Components != 2 || st.Reused != 1 || st.Solved != 1 {
		t.Fatalf("after a one-island edit stats = %+v, want 1 reused / 1 solved", st)
	}
	if !ng.IsIndependentSet(res.Set) {
		t.Fatal("post-edit union is not independent")
	}
}

// The empty graph has zero components and a zero answer.
func TestSolveByComponentEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	res, st, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), ComponentCache{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Components != 0 || res.Weight != 0 || len(res.Set) != 0 {
		t.Fatalf("empty graph: stats %+v weight %d", st, res.Weight)
	}
}

// A cache returning garbage indices must surface an error, not corrupt the
// answer silently.
func TestSolveByComponentBadCacheEntry(t *testing.T) {
	g := twoIslands(4, 8)
	cc := ComponentCache{
		Lookup: func(string) ([]int32, bool) { return []int32{99}, true },
	}
	if _, _, err := SolveByComponent("goodnodes", g, 0.5, 0, incCfg(), cc); err == nil {
		t.Fatal("out-of-range cached member must error")
	}
}

// Carried components are the split of the new version, and solving over
// them is solving by component: along a chain of weight updates, an
// in-component toggle, a split, a merge and an edge joining two
// components, CarryComponents agrees with SplitComponents on order,
// ToParent and Hash after every step; untouched components are carried as
// is; and SolveComponents over the carried parts matches SolveByComponent
// on set, weight, metrics and reuse, with and without a cache.
func TestCarryComponentsMatchesSplit(t *testing.T) {
	// Three paths 0..9, 10..19 and 20..29 and an isolated node 30.
	b := graph.NewBuilder(31)
	for v := 0; v < 29; v++ {
		if v != 9 && v != 19 {
			b.AddEdge(v, v+1)
		}
	}
	for v := 0; v < 31; v++ {
		b.SetWeight(v, int64(1+(v*7)%13))
	}
	g := b.MustBuild()
	chain := []graph.Edit{
		{Weights: []graph.WeightUpdate{{V: 3, W: 40}}},
		{AddEdges: [][2]int32{{11, 15}}},
		{RemoveEdges: [][2]int32{{11, 15}}},
		{RemoveEdges: [][2]int32{{24, 25}}},                             // split
		{AddEdges: [][2]int32{{22, 27}}},                                // merge back
		{AddEdges: [][2]int32{{9, 30}}},                                 // join the isolated node
		{AddEdges: [][2]int32{{5, 12}}},                                 // join two paths
		{AddEdges: [][2]int32{{0, 1}}, RemoveEdges: [][2]int32{{0, 2}}}, // no-ops
		{RemoveEdges: [][2]int32{{5, 12}, {9, 30}}, Weights: []graph.WeightUpdate{{V: 30, W: 2}, {V: 20, W: 9}}},
	}
	cached := func() ComponentCache {
		m := map[string][]int32{}
		return ComponentCache{
			Lookup: func(h string) ([]int32, bool) { s, ok := m[h]; return s, ok },
			Store:  func(h string, set []int32, _ int64) { m[h] = set },
		}
	}
	carryCache, splitCache := cached(), cached()
	parts := g.SplitComponents()
	for step, e := range chain {
		ng, rep, err := g.ApplyEdit(e)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		carried := ng.CarryComponents(parts, rep.Touched)
		split := ng.SplitComponents()
		if len(carried) != len(split) {
			t.Fatalf("step %d: carried %d components, split %d", step, len(carried), len(split))
		}
		comp, _ := ng.Components()
		for i := range split {
			c, s := carried[i], split[i]
			if c.Hash != s.Hash || !slices.Equal(c.ToParent, s.ToParent) {
				t.Fatalf("step %d component %d: carried %v %s, split %v %s", step, i, c.ToParent, c.Hash[:8], s.ToParent, s.Hash[:8])
			}
			keep := make([]bool, ng.N())
			for v := range keep {
				keep[v] = comp[v] == comp[s.ToParent[0]]
			}
			if ind := ng.Induce(keep); ind.G.HashString() != s.Hash || !slices.Equal(ind.ToParent, s.ToParent) {
				t.Fatalf("step %d component %d: split disagrees with Induce", step, i)
			}
		}
		// A previous component without a touched node is carried as is.
		for _, p := range parts {
			if slices.ContainsFunc(p.ToParent, func(v int32) bool { return rep.Touched[v] }) {
				continue
			}
			if !slices.ContainsFunc(carried, func(c graph.Component) bool { return c.G == p.G }) {
				t.Fatalf("step %d: untouched component %v was rebuilt", step, p.ToParent)
			}
		}
		for _, cc := range []struct {
			name         string
			carry, split ComponentCache
		}{{"uncached", ComponentCache{}, ComponentCache{}}, {"cached", carryCache, splitCache}} {
			got, gotStats, err := SolveComponents("goodnodes", ng, carried, 0.5, 0, incCfg(), cc.carry)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, cc.name, err)
			}
			want, wantStats, err := SolveByComponent("goodnodes", ng, 0.5, 0, incCfg(), cc.split)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, cc.name, err)
			}
			if !graph.SameSet(got.Set, want.Set) || got.Weight != want.Weight ||
				!reflect.DeepEqual(got.Metrics, want.Metrics) || gotStats != wantStats {
				t.Fatalf("step %d %s: SolveComponents %d %+v %+v, SolveByComponent %d %+v %+v",
					step, cc.name, got.Weight, got.Metrics, gotStats, want.Weight, want.Metrics, wantStats)
			}
		}
		g, parts = ng, carried
	}
}
