package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

func TestTokenBucketRefill(t *testing.T) {
	b := newTokenBucket(10, 2) // 10 tokens/s, burst 2
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.last = now
	if !b.allow() || !b.allow() {
		t.Fatal("burst of 2 should be allowed")
	}
	if b.allow() {
		t.Fatal("third immediate request should be rejected")
	}
	now = now.Add(100 * time.Millisecond) // refills exactly one token
	if !b.allow() {
		t.Fatal("token should have refilled after 100ms at 10/s")
	}
	if b.allow() {
		t.Fatal("bucket should be empty again")
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	b := newTokenBucket(10, 2)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.last = now
	now = now.Add(time.Hour) // long idle must not accumulate beyond burst
	allowed := 0
	for i := 0; i < 10; i++ {
		if b.allow() {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("allowed %d after long idle, want burst cap 2", allowed)
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	b := newTokenBucket(0, 1)
	for i := 0; i < 1000; i++ {
		if !b.allow() {
			t.Fatal("rate 0 must disable limiting")
		}
	}
}

// solveDegraded answers g on the server's degraded tier.
func solveDegraded(t *testing.T, ts *httptest.Server, g *graph.Graph) ([]bool, int64) {
	t.Helper()
	code, resp := postSolve(t, ts, SolveRequest{Canonical: g.Canonical(), Degraded: true})
	if code != http.StatusOK || resp.Status != "done" || !resp.Degraded {
		t.Fatalf("degraded solve: code=%d resp=%+v", code, resp)
	}
	return indicesToSet(g.N(), resp.Set), resp.Weight
}

func TestGreedyDegradedIsIndependentAndMaximal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for seed := uint64(1); seed <= 5; seed++ {
		g := gen.Weighted(gen.GNP(300, 0.05, seed), gen.PolyWeights(2), seed)
		set, weight := solveDegraded(t, ts, g)
		if !g.IsIndependentSet(set) {
			t.Fatalf("seed %d: degraded set not independent", seed)
		}
		if !g.IsMaximalIS(set) {
			t.Fatalf("seed %d: greedy set should be maximal", seed)
		}
		if weight != g.SetWeight(set) {
			t.Fatalf("seed %d: reported weight %d != actual %d", seed, weight, g.SetWeight(set))
		}
	}
}

func TestGreedyDegradedGuarantee(t *testing.T) {
	// Weight-ordered greedy is a (Δ+1)-approximation; since OPT ≤ w(V),
	// w(greedy) ≥ w(V)/(Δ+1) is the checkable relaxation.
	_, ts := newTestServer(t, Options{Workers: 1})
	g := gen.Weighted(gen.GNP(500, 0.02, 3), gen.UniformWeights(1000), 3)
	_, weight := solveDegraded(t, ts, g)
	bound := float64(g.TotalWeight()) / float64(g.MaxDegree()+1)
	if float64(weight) < bound {
		t.Fatalf("greedy weight %d below w(V)/(Δ+1) = %.1f", weight, bound)
	}
}

// TestGreedyDegradedDeterministic: the degraded tier serves the kernel's
// greedy set, so its answer depends on weights and identifiers only — not
// on node indexing — and repeats exactly.
func TestGreedyDegradedDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	g := gen.RandomIDs(gen.Weighted(gen.GNP(200, 0.05, 9), gen.UniformWeights(5), 9), 1<<20, 9)
	want, _ := g.Greedy()
	for i := 0; i < 2; i++ {
		if got, _ := solveDegraded(t, ts, g); !graph.SameSet(got, want) {
			t.Fatalf("solve %d: degraded tier differs from graph.Greedy", i)
		}
	}
}
