//go:build !race

package gen

import (
	"runtime"
	"testing"
)

// TestGNPBytes guards what GNP allocates on the cold-solve shape: the
// sampler's edge list is recycled across graphs, so the graph's own
// arrays — offsets, adjacency, weights and identifiers — are nearly all
// of it. A fresh edge list per graph, or a Builder regrown per edge, adds
// half as much again or doubles it.
func TestGNPBytes(t *testing.T) {
	const n, p = 2000, 0.004
	seed := uint64(0)
	var m int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for range runs {
		seed++
		m += GNP(n, p, seed).M()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	csr := float64(4*(n+1)+8*m/runs) + 16*n
	t.Logf("%.0f bytes per graph, %.0f in its arrays", bytes, csr)
	if bytes > 1.3*csr {
		t.Errorf("GNP allocates %.0f bytes, %.2f× its arrays' %.0f, want ≤ 1.3×", bytes, bytes/csr, csr)
	}
}
