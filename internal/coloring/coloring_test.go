package coloring

import (
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/mis"
	"distmwis/internal/stats"
)

func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	return map[string]*graph.Graph{
		"single":    gen.Path(1),
		"path":      gen.Path(20),
		"cycle":     gen.Cycle(33),
		"clique":    gen.Clique(17),
		"star":      gen.Star(25),
		"gnp":       gen.GNP(200, 0.05, 3),
		"tree":      gen.RandomTree(120, 4),
		"bipartite": gen.CompleteBipartite(7, 9),
		"isolated":  graph.NewBuilder(8).MustBuild(),
	}
}

func TestRandomGreedyProperColoring(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				col, err := RandomGreedy(g, congest.Config{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(g, col.Colors, g.MaxDegree()+1); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestRandomGreedyRoundsLogarithmic(t *testing.T) {
	g := gen.GNP(2048, 0.005, 5)
	col, err := RandomGreedy(g, congest.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if col.Exec.Rounds > 60 {
		t.Errorf("colouring took %d rounds on n=2048, want O(log n)", col.Exec.Rounds)
	}
}

func TestVerifyRejects(t *testing.T) {
	g := gen.Path(3)
	if err := Verify(g, []int{0, 0, 1}, 2); err == nil {
		t.Error("accepted monochromatic edge")
	}
	if err := Verify(g, []int{0, 1, -1}, 2); err == nil {
		t.Error("accepted uncoloured node")
	}
	if err := Verify(g, []int{0, 5, 0}, 2); err == nil {
		t.Error("accepted colour above limit")
	}
	if err := Verify(g, []int{0, 1}, 2); err == nil {
		t.Error("accepted wrong length")
	}
}

func TestMISFromColoring(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			col, err := RandomGreedy(g, congest.Config{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			set, exec, err := MISFromColoring(g, col, congest.Config{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := mis.Verify(g, set); err != nil {
				t.Fatal(err)
			}
			// k+1 rounds suffice.
			if exec.Rounds > col.NumColors+1 {
				t.Errorf("conversion took %d rounds for %d colours", exec.Rounds, col.NumColors)
			}
		})
	}
}

func TestColeVishkinRing3Coloring(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 64, 1024, 65536} {
		g := gen.Cycle(n)
		col, err := ColeVishkinRing(g, CanonicalRingSuccessorPorts(n), congest.Config{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := Verify(g, col.Colors, 3); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestColeVishkinWithScatteredIDs(t *testing.T) {
	// Large identifier space exercises more reduction iterations.
	g := gen.RandomIDs(gen.Cycle(256), 1<<40, 9)
	ports := CanonicalRingSuccessorPorts(256)
	col, err := ColeVishkinRing(g, ports, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, col.Colors, 3); err != nil {
		t.Fatal(err)
	}
}

func TestColeVishkinRoundsAreLogStar(t *testing.T) {
	// Rounds must track log*(maxID), not log n: going from n=2^6 to n=2^16
	// should add only a couple of rounds.
	r6, err := ColeVishkinRing(gen.Cycle(1<<6), CanonicalRingSuccessorPorts(1<<6), congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r16, err := ColeVishkinRing(gen.Cycle(1<<16), CanonicalRingSuccessorPorts(1<<16), congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r16.Exec.Rounds > r6.Exec.Rounds+4 {
		t.Errorf("rounds grew from %d to %d over a 1024x size increase; want log* growth",
			r6.Exec.Rounds, r16.Exec.Rounds)
	}
	if got, want := r16.Exec.Rounds, 3*stats.LogStar(1<<16)+10; got > want {
		t.Errorf("rounds %d exceed ~O(log* n) budget %d", got, want)
	}
}

func TestColeVishkinRejectsNonRing(t *testing.T) {
	if _, err := ColeVishkinRing(gen.Path(5), make([]int, 5), congest.Config{}); err == nil {
		t.Error("accepted a path")
	}
	if _, err := ColeVishkinRing(gen.Cycle(3), []int{0, 0, 7}, congest.Config{}); err == nil {
		t.Error("accepted a bad port map")
	}
}

func TestRingMIS(t *testing.T) {
	for _, n := range []int{5, 32, 513, 4096} {
		g := gen.Cycle(n)
		set, rounds, col, err := RingMIS(g, CanonicalRingSuccessorPorts(n), congest.Config{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := mis.Verify(g, set); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if col.NumColors > 3 {
			t.Errorf("n=%d: %d colours", n, col.NumColors)
		}
		if rounds > 25 {
			t.Errorf("n=%d: deterministic ring MIS took %d rounds, want O(log* n)", n, rounds)
		}
	}
}

func TestBuildBFSTree(t *testing.T) {
	g := gen.Grid(5, 8)
	tree, err := BuildBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth != 4+7 {
		t.Errorf("depth = %d, want 11", tree.Depth)
	}
	// Every non-root has a parent; child lists are consistent.
	childCount := 0
	for v := 0; v < g.N(); v++ {
		if v == tree.Root {
			if tree.ParentPort[v] != -1 {
				t.Error("root has a parent")
			}
		} else if tree.ParentPort[v] < 0 {
			t.Errorf("node %d has no parent", v)
		}
		childCount += len(tree.ChildPorts[v])
	}
	if childCount != g.N()-1 {
		t.Errorf("tree has %d child edges, want n-1 = %d", childCount, g.N()-1)
	}
}

func TestBuildBFSTreeDisconnected(t *testing.T) {
	if _, err := BuildBFSTree(graph.NewBuilder(4).MustBuild(), 0); err == nil {
		t.Error("accepted a disconnected graph")
	}
}

func TestMaxWeightClass(t *testing.T) {
	g := gen.Weighted(gen.GNP(150, 0.04, 7), gen.UniformWeights(100), 7)
	// GNP may be disconnected; patch connectivity through a spanning path.
	b := graph.NewBuilder(g.N())
	b.SetWeights(g.Weights())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				b.AddEdge(v, int(u))
			}
		}
	}
	for v := 0; v+1 < g.N(); v++ {
		b.AddEdge(v, v+1)
	}
	g = b.MustBuild()

	col, err := RandomGreedy(g, congest.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	set, winner, exec, err := MaxWeightClass(g, col, tree, congest.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsIndependentSet(set) {
		t.Fatal("colour class not independent")
	}
	// The winner must really be the argmax class.
	sums := make([]int64, col.NumColors)
	for v := 0; v < g.N(); v++ {
		sums[col.Colors[v]] += g.Weight(v)
	}
	for c, s := range sums {
		if s > sums[winner] {
			t.Errorf("class %d has weight %d > winner %d's %d", c, s, winner, sums[winner])
		}
	}
	// And the class is a (Δ+1)-approximation of w(V).
	if sums[winner]*int64(col.NumColors) < g.TotalWeight() {
		t.Errorf("winner weight %d below w(V)/k", sums[winner])
	}
	// Pipelined convergecast + broadcast: ≈ 2·depth + k rounds.
	if exec.Rounds > 2*tree.Depth+col.NumColors+5 {
		t.Errorf("aggregation took %d rounds, want ≲ 2·depth+k = %d", exec.Rounds, 2*tree.Depth+col.NumColors)
	}
}

func TestColorClassApproxRoundsScaleWithDiameter(t *testing.T) {
	// The Open Question 2 barrier: on a path (D = n-1) the colour-class
	// pipeline pays Θ(D) rounds; on a low-diameter graph it is cheap.
	pathG := gen.Weighted(gen.Path(400), gen.UniformWeights(50), 1)
	set, rounds, depth, err := ColorClassApprox(pathG, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !pathG.IsIndependentSet(set) {
		t.Fatal("dependent set")
	}
	if rounds < depth {
		t.Errorf("rounds %d below tree depth %d: the D-barrier vanished (bug)", rounds, depth)
	}
	if depth < 100 {
		t.Errorf("path depth = %d, expected Θ(n)", depth)
	}
}
