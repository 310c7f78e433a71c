//go:build !race

package server

import (
	"runtime"
	"testing"

	"distmwis/internal/graph/gen"
)

// TestCacheKeyBytes guards the build → key stage of a cold request: the
// graph's content hash and its cache key come from one streamed pass over
// the canonical encoding, so together they allocate the two hash states
// and their hex digests, never a copy of the encoding (about 45 KB on this
// shape).
func TestCacheKeyBytes(t *testing.T) {
	const ceiling = 1 << 10
	g := gen.Weighted(gen.GNP(2000, 0.004, 1), gen.PolyWeights(2), 1)
	req := SolveRequest{Gen: &GenSpec{Kind: "gnp", N: 2000, P: 0.004, Weights: "poly2", Seed: 1}, Alg: "theorem2"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	fp := req.Fingerprint()
	cacheKey(g, nil, fp) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for range runs {
		cacheKey(g, nil, fp)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes per hash and key", bytes)
	if bytes >= ceiling {
		t.Errorf("hashing the graph and keying the request allocates %.0f bytes, want < %d", bytes, ceiling)
	}
}
