package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/mis"
)

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain()
	})
	return s, ts
}

func postSolve(t testing.TB, ts *httptest.Server, req SolveRequest) (int, SolveResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp SolveResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return httpResp.StatusCode, resp
}

func indicesToSet(n int, idx []int32) []bool {
	set := make([]bool, n)
	for _, v := range idx {
		set[v] = true
	}
	return set
}

func TestSolveDeterminismMatchesCLI(t *testing.T) {
	// The correctness contract: a solve served over HTTP returns the
	// bit-identical independent set the cmd/maxis pipeline computes for the
	// same graph, algorithm and seed.
	_, ts := newTestServer(t, Options{Workers: 2})
	g := gen.Weighted(gen.GNP(150, 0.05, 42), gen.PolyWeights(2), 42)

	code, resp := postSolve(t, ts, SolveRequest{
		Gen:  &GenSpec{Kind: "gnp", N: 150, P: 0.05, Weights: "poly2", Seed: 42},
		Alg:  "theorem2",
		Seed: 42,
	})
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("solve failed: code=%d resp=%+v", code, resp)
	}

	want, err := maxis.Solve("theorem2", g, 0.5, 0, maxis.Config{Seed: 42, MIS: mis.Luby{}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := indicesToSet(g.N(), resp.Set)
	if !graph.SameSet(got, want.Set) {
		t.Fatal("HTTP result differs from the direct library run on the same seed")
	}
	if resp.Weight != want.Weight || resp.Rounds != want.Metrics.Rounds {
		t.Fatalf("metrics drift: weight %d/%d rounds %d/%d",
			resp.Weight, want.Weight, resp.Rounds, want.Metrics.Rounds)
	}
	if resp.GraphHash != g.HashString() {
		t.Fatalf("graph hash mismatch: %s vs %s", resp.GraphHash, g.HashString())
	}
}

func TestSolveDeterminismWithReliableAndFaults(t *testing.T) {
	// Same contract under -reliable with a message-fault schedule: the
	// transport makes the execution bit-identical to fault-free, and the
	// service must reproduce exactly what the CLI wiring computes.
	_, ts := newTestServer(t, Options{Workers: 2})
	g := gen.Weighted(gen.GNP(80, 0.06, 7), gen.UniformWeights(100), 7)

	req := SolveRequest{
		Gen:      &GenSpec{Kind: "gnp", N: 80, P: 0.06, Weights: "uniform", MaxW: 100, Seed: 7},
		Alg:      "goodnodes",
		Seed:     7,
		Reliable: true,
		Fault:    &FaultSpec{Loss: 0.2, Dup: 0.05},
	}
	code, resp := postSolve(t, ts, req)
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("solve failed: code=%d resp=%+v", code, resp)
	}

	sched := fault.Schedule{Seed: 7 + 77, Loss: 0.2, Dup: 0.05, CrashAt: 3}
	cfg := maxis.Config{
		Seed: 7, MIS: mis.Luby{}, Workers: 1,
		Reliable: true, Faults: sched, MaxWeight: 100,
	}
	want, err := maxis.Solve("goodnodes", g, 0.5, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := indicesToSet(g.N(), resp.Set)
	if !graph.SameSet(got, want.Set) {
		t.Fatal("reliable+faults HTTP result differs from the CLI-equivalent run")
	}
	if !g.IsIndependentSet(got) {
		t.Fatal("returned set is not independent")
	}
}

func TestSolveInlineGraphAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	g := gen.Weighted(gen.GNP(100, 0.05, 5), gen.PolyWeights(2), 5)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Graph: json.RawMessage(buf.Bytes()), Alg: "goodnodes", Seed: 5}

	code, first := postSolve(t, ts, req)
	if code != http.StatusOK || first.Cached {
		t.Fatalf("first solve: code=%d cached=%t", code, first.Cached)
	}
	code, second := postSolve(t, ts, req)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("second solve should be a cache hit: code=%d cached=%t", code, second.Cached)
	}
	if fmt.Sprint(first.Set) != fmt.Sprint(second.Set) || first.Weight != second.Weight {
		t.Fatal("cached result differs from the original solve")
	}
	hits, _, _, _, _, _, _ := s.cache.stats()
	if hits == 0 {
		t.Fatal("cache hit counter not incremented")
	}

	// The same graph posted as a gen spec hits the same cache line: the key
	// is content-addressed, not request-shaped.
	code, third := postSolve(t, ts, SolveRequest{
		Gen: &GenSpec{Kind: "gnp", N: 100, P: 0.05, Weights: "poly2", Seed: 5}, Alg: "goodnodes", Seed: 5,
	})
	if code != http.StatusOK || !third.Cached {
		t.Fatalf("gen-spec equivalent should hit the cache: cached=%t", third.Cached)
	}
}

// TestNegativeCacheBytesDisablesCache: CacheBytes < 0 stores no answer, so
// a repeated solve is solved again and the cache stays empty.
func TestNegativeCacheBytesDisablesCache(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, CacheBytes: -1})
	req := SolveRequest{Gen: &GenSpec{Kind: "gnp", N: 100, P: 0.05, Weights: "poly2", Seed: 5}, Alg: "goodnodes", Seed: 5}
	for i := range 2 {
		if code, resp := postSolve(t, ts, req); code != http.StatusOK || resp.Cached {
			t.Fatalf("solve %d: code=%d cached=%t, want 200 and not cached", i+1, code, resp.Cached)
		}
	}
	if _, _, _, _, _, used, entries := s.cache.stats(); entries != 0 || used != 0 {
		t.Fatalf("disabled cache holds %d entries (%d bytes), want none", entries, used)
	}
}

// TestSolveCanonicalMatchesJSON: a graph sent as canonical bytes is the
// same request as the graph sent as JSON — same graph hash, same set and
// weight, and the same cache line, so the second form is a cache hit.
func TestSolveCanonicalMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	g := gen.Weighted(gen.GNP(120, 0.05, 9), gen.UniformWeights(1000), 9)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	code, byJSON := postSolve(t, ts, SolveRequest{Graph: json.RawMessage(buf.Bytes()), Seed: 4})
	if code != http.StatusOK || byJSON.Cached {
		t.Fatalf("json solve: code=%d cached=%t err=%q", code, byJSON.Cached, byJSON.Error)
	}
	code, byCanon := postSolve(t, ts, SolveRequest{Canonical: g.Canonical(), Seed: 4})
	if code != http.StatusOK || !byCanon.Cached {
		t.Fatalf("canonical solve should hit the json solve's cache line: code=%d cached=%t err=%q",
			code, byCanon.Cached, byCanon.Error)
	}
	if byCanon.GraphHash != g.HashString() || byCanon.GraphHash != byJSON.GraphHash {
		t.Fatalf("graph_hash %s via canonical, %s via json, want %s", byCanon.GraphHash, byJSON.GraphHash, g.HashString())
	}
	if fmt.Sprint(byCanon.Set) != fmt.Sprint(byJSON.Set) || byCanon.Weight != byJSON.Weight {
		t.Fatal("canonical and json forms of one graph got different answers")
	}
}

func TestSolveAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	code, resp := postSolve(t, ts, SolveRequest{
		Gen:   &GenSpec{Kind: "cycle", N: 64},
		Alg:   "goodnodes",
		Async: true,
	})
	if code != http.StatusAccepted || resp.ID == "" {
		t.Fatalf("async submit: code=%d resp=%+v", code, resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		httpResp, err := http.Get(ts.URL + "/v1/jobs/" + resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jr SolveResponse
		if err := json.NewDecoder(httpResp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		httpResp.Body.Close()
		if jr.Status == "done" {
			if len(jr.Set) == 0 || jr.Weight <= 0 {
				t.Fatalf("done job missing result: %+v", jr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", resp.ID, jr)
		}
		time.Sleep(10 * time.Millisecond)
	}

	httpResp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: code=%d, want 404", httpResp.StatusCode)
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// One path with a negative weight, in both inline forms: the builder
	// rejects it on the JSON path, BuildGraph on the canonical path.
	negative := gen.Path(3).WithWeights([]int64{2, -5, 1})
	var negJSON bytes.Buffer
	if err := negative.WriteJSON(&negJSON); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  SolveRequest
	}{
		{"no-graph", SolveRequest{Alg: "theorem2"}},
		{"both-graphs", SolveRequest{Graph: json.RawMessage(`{"n":1,"edges":[]}`), Gen: &GenSpec{Kind: "cycle", N: 4}}},
		{"graph-and-canonical", SolveRequest{Graph: json.RawMessage(`{"n":1,"edges":[]}`), Canonical: gen.Cycle(4).Canonical()}},
		{"bad-canonical", SolveRequest{Canonical: []byte("DMWG1 not a graph")}},
		{"negative-weight-json", SolveRequest{Graph: json.RawMessage(negJSON.Bytes())}},
		{"negative-weight-canonical", SolveRequest{Canonical: negative.Canonical()}},
		{"bad-alg", SolveRequest{Gen: &GenSpec{Kind: "cycle", N: 4}, Alg: "nope"}},
		{"bad-kind", SolveRequest{Gen: &GenSpec{Kind: "nope", N: 4}}},
		{"bad-mis", SolveRequest{Gen: &GenSpec{Kind: "cycle", N: 4}, MIS: "nope"}},
		{"bad-priority", SolveRequest{Gen: &GenSpec{Kind: "cycle", N: 4}, Priority: "urgent"}},
		{"checkpoint-without-reliable", SolveRequest{Gen: &GenSpec{Kind: "cycle", N: 4}, CheckpointEvery: 4}},
		{"negative-n", SolveRequest{Gen: &GenSpec{Kind: "cycle", N: -1}}},
		{"zero-n", SolveRequest{Gen: &GenSpec{Kind: "cycle"}}},
		{"bad-weights", SolveRequest{Gen: &GenSpec{Kind: "cycle", N: 4, Weights: "golden"}}},
		{"bad-fault", SolveRequest{Gen: &GenSpec{Kind: "cycle", N: 4}, Fault: &FaultSpec{Loss: 1.5}}},
	}
	for _, tc := range cases {
		code, resp := postSolve(t, ts, tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code=%d (resp %+v), want 400", tc.name, code, resp)
		}
		if resp.Error == "" {
			t.Errorf("%s: error message missing", tc.name)
		}
		if strings.HasPrefix(tc.name, "negative-weight") && !strings.Contains(resp.Error, "node 1 has negative weight -5") {
			t.Errorf("%s: error %q does not name the negative weight", tc.name, resp.Error)
		}
	}
}

// TestGenSolveHashMatchesSpecBuild: for every generator kind and weight
// family, a gen solve reports the hash of the graph gen.Spec.Build builds —
// the graph cmd/maxis and cmd/graphgen build for the same flags.
func TestGenSolveHashMatchesSpecBuild(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, kind := range gen.Kinds() {
		for _, weights := range gen.WeightFamilies() {
			spec := gen.Spec{Kind: kind, N: 6, P: 0.4, K: 2, Weights: weights, Seed: 3}
			g, err := spec.Build()
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, weights, err)
			}
			code, resp := postSolve(t, ts, SolveRequest{Gen: &spec, Alg: "goodnodes"})
			if code != http.StatusOK || resp.GraphHash != g.HashString() {
				t.Errorf("%s/%s: code=%d graph_hash=%s, want 200 and %s (resp %+v)",
					kind, weights, code, resp.GraphHash, g.HashString(), resp)
			}
		}
	}
}

func TestRateLimit429(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Rate: 0.0001, Burst: 1})
	req := SolveRequest{Gen: &GenSpec{Kind: "cycle", N: 16}, Alg: "goodnodes"}
	code, _ := postSolve(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("first request should pass: %d", code)
	}
	code, _ = postSolve(t, ts, req)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request should be rate-limited: %d", code)
	}
}

func TestLoadSheddingDegradesButStaysValid(t *testing.T) {
	// One worker, shed threshold 1: hold the worker with a blocker, park one
	// job in the queue; the next request must be answered degraded.
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, ShedDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	if err := s.sched.submit(newTestJob("interactive", func() { close(started); <-block })); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.sched.submit(newTestJob("interactive", func() {})); err != nil {
		t.Fatal(err)
	}
	defer close(block)
	if s.sched.depth() < 1 {
		t.Fatal("queue should hold one parked job")
	}

	g := gen.Weighted(gen.GNP(200, 0.05, 99), gen.PolyWeights(2), 99)
	code, resp := postSolve(t, ts, SolveRequest{
		Gen: &GenSpec{Kind: "gnp", N: 200, P: 0.05, Weights: "poly2", Seed: 99}, Alg: "theorem2", Seed: 99,
	})
	if code != http.StatusOK || !resp.Degraded {
		t.Fatalf("expected degraded response: code=%d degraded=%t", code, resp.Degraded)
	}
	set := indicesToSet(g.N(), resp.Set)
	if !g.IsIndependentSet(set) {
		t.Fatal("degraded response is not an independent set")
	}
	if resp.Weight != g.SetWeight(set) {
		t.Fatal("degraded weight mismatch")
	}
}

func TestGracefulShutdown(t *testing.T) {
	// SIGTERM semantics: in-flight jobs complete, new submissions get 503,
	// drain returns within the timeout.
	s, ts := newTestServer(t, Options{Workers: 1, DrainTimeout: 10 * time.Second})
	// Hold the only worker so the HTTP job below stays in flight (queued)
	// across the shutdown sequence.
	block := make(chan struct{})
	started := make(chan struct{})
	if err := s.sched.submit(newTestJob("interactive", func() { close(started); <-block })); err != nil {
		t.Fatal(err)
	}
	<-started
	inflight := SolveRequest{
		Gen: &GenSpec{Kind: "gnp", N: 300, P: 0.04, Weights: "poly2", Seed: 3}, Alg: "goodnodes", NoCache: true,
	}
	type outcome struct {
		code int
		resp SolveResponse
	}
	ch := make(chan outcome, 1)
	go func() {
		code, resp := postSolve(t, ts, inflight)
		ch <- outcome{code, resp}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.depth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.sched.depth() == 0 {
		t.Fatal("solve never queued")
	}

	s.BeginShutdown()

	// New work is rejected with 503 while draining.
	code, _ := postSolve(t, ts, SolveRequest{Gen: &GenSpec{Kind: "cycle", N: 8}, Alg: "goodnodes"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: code=%d, want 503", code)
	}
	// /readyz flips to 503; /healthz stays 200.
	if r, err := http.Get(ts.URL + "/readyz"); err != nil || r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %v %d", err, r.StatusCode)
	} else {
		r.Body.Close()
	}
	if r, err := http.Get(ts.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %v %d", err, r.StatusCode)
	} else {
		r.Body.Close()
	}

	close(block) // release the worker; drain must now finish the queued job
	start := time.Now()
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain exceeded timeout: %v", elapsed)
	}
	out := <-ch
	if out.code != http.StatusOK || out.resp.Status != "done" {
		t.Fatalf("in-flight job did not complete cleanly: code=%d resp=%+v", out.code, out.resp)
	}
}

func TestDeadlineExpiredInQueue(t *testing.T) {
	// ShedDepth high enough that the deadline, not shedding, decides.
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, ShedDepth: 100})
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the only worker outside the HTTP path.
	if err := s.sched.submit(newTestJob("interactive", func() { close(started); <-block })); err != nil {
		t.Fatal(err)
	}
	<-started
	defer close(block)

	code, resp := postSolve(t, ts, SolveRequest{
		Gen:        &GenSpec{Kind: "cycle", N: 32},
		Alg:        "goodnodes",
		DeadlineMS: 50,
		NoCache:    true,
	})
	if code != http.StatusGatewayTimeout || resp.Status != "deadline" {
		t.Fatalf("queued-past-deadline job: code=%d resp=%+v, want 504/deadline", code, resp)
	}
}

// TestEngineMetricsCountResponses: the engine totals add up what executed
// solves' responses report, so after one cold solve and one cache hit they
// equal the cold response's rounds, messages and bits.
func TestEngineMetricsCountResponses(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := SolveRequest{Gen: &GenSpec{Kind: "gnp", N: 80, P: 0.08, Seed: 3}, Alg: "theorem2", Eps: 0.5, Seed: 3}
	_, cold := postSolve(t, ts, req)
	if _, hit := postSolve(t, ts, req); !hit.Cached {
		t.Fatal("second solve was not a cache hit")
	}
	if cold.Rounds == 0 || cold.Messages == 0 || cold.Bits == 0 {
		t.Fatalf("cold response reports no traffic: %+v", cold)
	}
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"maxisd_engine_rounds_total":   int64(cold.Rounds),
		"maxisd_engine_messages_total": cold.Messages,
		"maxisd_engine_bits_total":     cold.Bits,
	} {
		line := fmt.Sprintf("\n%s %d\n", name, want)
		if !strings.Contains(string(body), line) {
			t.Errorf("metrics output lacks %q", strings.TrimSpace(line))
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := SolveRequest{Gen: &GenSpec{Kind: "gnp", N: 60, P: 0.1, Seed: 2}, Alg: "goodnodes", Seed: 2}
	postSolve(t, ts, req)
	postSolve(t, ts, req) // cache hit

	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, httpResp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"maxisd_requests_total 2",
		"maxisd_cache_hits_total 1",
		"maxisd_cache_misses_total 1",
		"maxisd_engine_rounds_total",
		"maxisd_queue_depth",
		`maxisd_solve_latency_seconds{alg="goodnodes",quantile="0.99"}`,
		`maxisd_solve_latency_seconds{alg="cache_hit",quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
