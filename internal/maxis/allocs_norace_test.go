//go:build !race

package maxis

import "testing"

// TestTheorem2ColdAllocs guards the per-run allocation profile of a cold
// Theorem 2 solve on the cold-solve shape (2000 nodes, nine simulator
// runs). Processes come from recycled arrays and messages from per-node
// slots, so a solve allocates a few hundred objects; any per-node
// allocation reintroduced in the round loop or a pipeline protocol adds
// thousands and fails the fixed ceiling. Excluded from -race builds, where
// sync.Pool drops items at random.
func TestTheorem2ColdAllocs(t *testing.T) {
	const ceiling = 1000
	gs := coldSolveGraphs(3)
	i := 0
	allocs := testing.AllocsPerRun(6, func() {
		i++
		if _, err := Theorem2(gs[i%len(gs)], 0.5, Config{Seed: uint64(i), Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per solve", allocs)
	if allocs > ceiling {
		t.Errorf("a cold Theorem 2 solve allocates %.0f objects, want ≤ %d", allocs, ceiling)
	}
}
