package reliable

import (
	"testing"

	"distmwis/internal/graph"
)

// Property: Repair always leaves an independent set, and a second pass over
// its own output finds nothing left to do.
func TestRepairIdempotent(t *testing.T) {
	g := gnpGraph(t, 200, 0.05, 7)
	set := make([]bool, g.N())
	// A deliberately broken candidate set: every third node, conflicts
	// guaranteed on a graph this dense.
	for v := 0; v < g.N(); v += 3 {
		set[v] = true
	}
	first := Repair(g, set)
	if !g.IsIndependentSet(set) {
		t.Fatal("repaired set is not independent")
	}
	if first.Conflicts == 0 {
		t.Fatal("test set had no conflicts — the idempotence check is vacuous")
	}
	second := Repair(g, set)
	if second.Conflicts != 0 || second.Withdrawn != 0 || second.WithdrawnWeight != 0 {
		t.Fatalf("second pass not a no-op: %+v", second)
	}
}

// Property: Repair is a pure function of (graph, set) — the schedule that
// produced the candidate set cannot matter, because Repair scans edges in
// ascending (v, u) order with an order-free local rule. Verified by feeding
// byte-identical copies and checking outcomes match element-wise.
func TestRepairDeterministic(t *testing.T) {
	g := gnpGraph(t, 150, 0.08, 21)
	mk := func() []bool {
		set := make([]bool, g.N())
		for v := 0; v < g.N(); v += 2 {
			set[v] = true
		}
		return set
	}
	a, b := mk(), mk()
	ra := Repair(g, a)
	rb := Repair(g, b)
	if ra != rb {
		t.Fatalf("reports differ: %+v vs %+v", ra, rb)
	}
	if !graph.SameSet(a, b) {
		t.Fatal("repaired sets differ on identical inputs")
	}
}

// Edge case: the all-conflict clique. Every pair conflicts; the scan must
// leave exactly one survivor — the maximum-weight node (lowest index on
// ties), because the lower-weight endpoint of each edge withdraws.
func TestRepairAllConflictClique(t *testing.T) {
	const n = 8
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+(v*3)%7)) // max weight 6 at v=2
	}
	g := b.MustBuild()
	set := make([]bool, n)
	for v := range set {
		set[v] = true
	}
	rep := Repair(g, set)
	if !g.IsIndependentSet(set) {
		t.Fatal("clique repair left a dependent set")
	}
	survivors := 0
	survivor := -1
	for v, in := range set {
		if in {
			survivors++
			survivor = v
		}
	}
	if survivors != 1 {
		t.Fatalf("clique repair left %d survivors, want 1", survivors)
	}
	if g.Weight(survivor) != g.MaxWeight() {
		t.Fatalf("survivor %d has weight %d, want the max %d", survivor, g.Weight(survivor), g.MaxWeight())
	}
	if rep.Withdrawn != n-1 {
		t.Fatalf("withdrew %d nodes, want %d", rep.Withdrawn, n-1)
	}
}

// Edge case: the empty set has nothing to conflict and nothing to withdraw.
func TestRepairEmptySet(t *testing.T) {
	g := gnpGraph(t, 50, 0.1, 3)
	set := make([]bool, g.N())
	rep := Repair(g, set)
	if rep != (RepairReport{}) {
		t.Fatalf("empty set produced a non-zero report: %+v", rep)
	}
	for v, in := range set {
		if in {
			t.Fatalf("empty set gained member %d", v)
		}
	}
}

// Property: Repair only removes nodes — it never admits one, so it can only
// shrink weight, never fabricate it.
func TestRepairOnlyShrinks(t *testing.T) {
	g := gnpGraph(t, 120, 0.06, 9)
	set := make([]bool, g.N())
	for v := 0; v < g.N(); v += 2 {
		set[v] = true
	}
	before := append([]bool(nil), set...)
	rep := Repair(g, set)
	for v := range set {
		if set[v] && !before[v] {
			t.Fatalf("Repair admitted node %d", v)
		}
	}
	if got := g.SetWeight(before) - g.SetWeight(set); got != rep.WithdrawnWeight {
		t.Fatalf("withdrawn weight accounting off: delta %d vs reported %d", got, rep.WithdrawnWeight)
	}
}

// gnpGraph builds a seeded G(n,p) without importing internal/graph/gen
// (which would cycle through nothing, but keep the package's test deps
// minimal and the construction visible).
func gnpGraph(t *testing.T, n int, p float64, seed uint64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	// xorshift-style LCG: deterministic, dependency-free.
	state := seed*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next() < p {
				b.AddEdge(u, v)
			}
		}
	}
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+(v*v)%97))
	}
	return b.MustBuild()
}
