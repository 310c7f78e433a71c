package coloring

import (
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

func TestDistributedBFSTreeMatchesHostTree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		budget int
	}{
		{name: "path", g: gen.Path(40), budget: 45},
		{name: "grid", g: gen.Grid(8, 8), budget: 20},
		{name: "cycle", g: gen.Cycle(30), budget: 20},
		{name: "clique", g: gen.Clique(12), budget: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			tree, exec, err := DistributedBFSTree(g, tc.budget, congest.Config{})
			if err != nil {
				t.Fatal(err)
			}
			// Root must be the max-ID node.
			wantRoot := 0
			for v := 1; v < g.N(); v++ {
				if g.ID(v) > g.ID(wantRoot) {
					wantRoot = v
				}
			}
			if tree.Root != wantRoot {
				t.Errorf("root = %d, want max-ID node %d", tree.Root, wantRoot)
			}
			// Depths must equal true BFS distances.
			host, err := BuildBFSTree(g, wantRoot)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Depth != host.Depth {
				t.Errorf("depth = %d, want %d", tree.Depth, host.Depth)
			}
			// Structure sanity: n-1 child edges, every non-root parented.
			edges := 0
			for v := 0; v < g.N(); v++ {
				edges += len(tree.ChildPorts[v])
				if v != tree.Root && tree.ParentPort[v] < 0 {
					t.Errorf("node %d unparented", v)
				}
			}
			if edges != g.N()-1 {
				t.Errorf("%d tree edges, want %d", edges, g.N()-1)
			}
			if exec.Rounds != tc.budget {
				t.Errorf("rounds = %d, want the budget %d (synchronous BFS runs its full budget)", exec.Rounds, tc.budget)
			}
		})
	}
}

func TestDistributedBFSTreeBudgetTooSmall(t *testing.T) {
	g := gen.Path(50)
	if _, _, err := DistributedBFSTree(g, 3, congest.Config{}); err == nil {
		t.Error("expected failure when the budget is below the diameter")
	}
}

func TestDistributedBFSTreeFeedsAggregation(t *testing.T) {
	// End-to-end: distributed tree + convergecast give the same winner as
	// the host-built tree.
	g := gen.Weighted(gen.Grid(10, 10), gen.UniformWeights(100), 4)
	col, err := RandomGreedy(g, congest.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dTree, _, err := DistributedBFSTree(g, 2*19+2, congest.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, winD, _, err := MaxWeightClass(g, col, dTree, congest.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hTree, err := BuildBFSTree(g, dTree.Root)
	if err != nil {
		t.Fatal(err)
	}
	_, winH, _, err := MaxWeightClass(g, col, hTree, congest.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if winD != winH {
		t.Errorf("winners differ: distributed %d vs host %d", winD, winH)
	}
}
