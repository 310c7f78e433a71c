//go:build !race

package maxis

import (
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/protocol"
)

// TestColdSolveAllocs guards the per-run allocation profile of a cold solve
// by every registered solver on the cold-solve shape (2000 nodes, unit
// weights for the solvers that need them).
// Processes come from recycled arrays, per-port state from NodeInfo.Words
// and messages from per-node slots, so a solve allocates a few hundred
// objects; any per-node allocation reintroduced in the round loop or a
// pipeline protocol adds thousands and fails the fixed ceiling. Excluded
// from -race builds, where sync.Pool drops items at random.
func TestColdSolveAllocs(t *testing.T) {
	const ceiling = 1000
	weighted := coldSolveGraphs(3)
	unit := make([]*graph.Graph, len(weighted))
	for i, g := range weighted {
		unit[i] = gen.Weighted(g, gen.UnitWeights, 0)
	}
	for _, s := range protocol.Solvers() {
		t.Run(s.Name(), func(t *testing.T) {
			gs := weighted
			if s.Meta().UnitWeightsOnly {
				gs = unit
			}
			params, err := s.Normalize(protocol.Params{Eps: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			allocs := testing.AllocsPerRun(3, func() {
				i++
				if _, err := s.Run(gs[i%len(gs)], params, Config{Seed: uint64(i), Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocations per solve", allocs)
			if allocs > ceiling {
				t.Errorf("a cold %s solve allocates %.0f objects, want ≤ %d", s.Name(), allocs, ceiling)
			}
		})
	}
}
