package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/repair"
	"distmwis/internal/server"
	"distmwis/internal/server/client"
)

// testFleet is N real maxisd backends on httptest listeners.
type testFleet struct {
	servers []*server.Server
	ts      []*httptest.Server
	urls    []string
}

func newFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		s := server.New(server.Options{Workers: 2})
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.ts = append(f.ts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	t.Cleanup(func() {
		for i := range f.servers {
			f.ts[i].Close()
			_ = f.servers[i].Close()
		}
	})
	return f
}

func testOpts() Options {
	return Options{
		Partitions:    3,
		ProbeInterval: -1, // tests drive ProbeOnce directly
		Client:        client.Options{Timeout: 10 * time.Second, MaxRetries: 1, BackoffBase: time.Millisecond},
	}
}

// verifySet rebuilds the request's graph and checks the response set is
// independent in it, returning the set's weight.
func verifySet(t *testing.T, req *server.SolveRequest, resp Response) int64 {
	t.Helper()
	g, err := req.BuildGraph()
	if err != nil {
		t.Fatalf("rebuild graph: %v", err)
	}
	set := make([]bool, g.N())
	for _, v := range resp.Set {
		set[v] = true
	}
	if !g.IsIndependentSet(set) {
		t.Fatalf("response set is not independent")
	}
	if got := g.SetWeight(set); got != resp.Weight {
		t.Fatalf("response weight %d, recomputed %d", resp.Weight, got)
	}
	return resp.Weight
}

// TestClusterPartitionedSolve is the tentpole acceptance test: a fan-out
// solve over three backends returns a verified independent set at least as
// heavy as the single-node degraded tier's answer on the same graph.
func TestClusterPartitionedSolve(t *testing.T) {
	fleet := newFleet(t, 3)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	for _, spec := range []server.GenSpec{
		{Kind: "gnp", N: 240, P: 0.03, Weights: "uniform", Seed: 11},
		{Kind: "grid", N: 16, Weights: "poly2", Seed: 3},
		{Kind: "forests", N: 200, K: 4, Weights: "uniform", Seed: 5},
	} {
		req := &server.SolveRequest{Gen: &spec}
		resp, err := c.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if resp.Status != "done" || !resp.Verified {
			t.Fatalf("%s: status=%q verified=%t", spec.Kind, resp.Status, resp.Verified)
		}
		if len(resp.Parts) != 3 {
			t.Fatalf("%s: %d part reports, want 3", spec.Kind, len(resp.Parts))
		}
		weight := verifySet(t, req, resp)

		g, _ := req.BuildGraph()
		_, floor := g.Greedy()
		if weight < floor {
			t.Fatalf("%s: cluster weight %d below degraded-tier floor %d", spec.Kind, weight, floor)
		}
		for _, p := range resp.Parts {
			if p.Local {
				t.Fatalf("%s: part %d fell back locally with all backends alive", spec.Kind, p.Part)
			}
			if p.Backend == "" {
				t.Fatalf("%s: part %d has no backend provenance", spec.Kind, p.Part)
			}
		}
	}
	st := c.Stats()
	if st.Partitioned != 3 || st.PartSolves != 9 {
		t.Fatalf("stats: partitioned=%d partSolves=%d", st.Partitioned, st.PartSolves)
	}
}

// TestClusterWholeGraphRoute: small graphs skip partitioning and ride the
// ring to one backend; the same graph routes to the same backend twice,
// hitting its content-addressed cache.
func TestClusterWholeGraphRoute(t *testing.T) {
	fleet := newFleet(t, 3)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	req := &server.SolveRequest{Gen: &server.GenSpec{Kind: "cycle", N: 40}}
	first, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Parts) != 1 || first.Parts[0].Backend == "" {
		t.Fatalf("whole-graph route: parts=%v", first.Parts)
	}
	verifySet(t, req, first)

	again, err := c.Solve(context.Background(), &server.SolveRequest{Gen: &server.GenSpec{Kind: "cycle", N: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if again.Parts[0].Backend != first.Parts[0].Backend {
		t.Fatalf("same content routed to %s then %s", first.Parts[0].Backend, again.Parts[0].Backend)
	}
	if !again.Parts[0].Cached {
		t.Fatal("repeat solve missed the backend cache despite identical routing")
	}
	if st := c.Stats(); st.WholeGraph != 2 || st.Partitioned != 0 {
		t.Fatalf("stats: wholeGraph=%d partitioned=%d", st.WholeGraph, st.Partitioned)
	}
}

// TestClusterFailover: killing a backend mid-fleet must not fail solves —
// the coordinator marks it dead on the first transient error and reroutes
// along the ring.
func TestClusterFailover(t *testing.T) {
	fleet := newFleet(t, 3)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	fleet.ts[1].Close() // dies before any probe has run

	for seed := uint64(1); seed <= 4; seed++ {
		req := &server.SolveRequest{Gen: &server.GenSpec{Kind: "gnp", N: 150, P: 0.04, Weights: "uniform", Seed: seed}}
		resp, err := c.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if resp.Status != "done" || !resp.Verified {
			t.Fatalf("seed %d: status=%q verified=%t", seed, resp.Status, resp.Verified)
		}
		verifySet(t, req, resp)
		for _, p := range resp.Parts {
			if p.Backend == fleet.urls[1] {
				t.Fatalf("seed %d: part %d reports the dead backend", seed, p.Part)
			}
		}
	}
	// The solve path marks the backend dead only if a part key routed to
	// it; the prober detects the death regardless.
	c.ProbeOnce(context.Background())
	if st := c.Stats(); st.BackendsAlive != 2 {
		t.Fatalf("BackendsAlive = %d after one death, want 2", st.BackendsAlive)
	}
}

// TestClusterAllDeadFallback: with every backend gone the coordinator
// answers from its own degraded tier rather than failing — the cluster
// inherits the single node's availability-over-quality contract.
func TestClusterAllDeadFallback(t *testing.T) {
	fleet := newFleet(t, 2)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	fleet.ts[0].Close()
	fleet.ts[1].Close()
	c.ProbeOnce(context.Background())
	if st := c.Stats(); st.BackendsAlive != 0 {
		t.Fatalf("BackendsAlive = %d after probing a dead fleet", st.BackendsAlive)
	}

	req := &server.SolveRequest{Gen: &server.GenSpec{Kind: "grid", N: 12, Weights: "uniform", Seed: 2}}
	resp, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("all-dead solve failed instead of degrading: %v", err)
	}
	if !resp.Degraded || !resp.Verified || resp.Status != "done" {
		t.Fatalf("degraded=%t verified=%t status=%q", resp.Degraded, resp.Verified, resp.Status)
	}
	if len(resp.Parts) != 1 || !resp.Parts[0].Local {
		t.Fatalf("parts=%v, want one local part", resp.Parts)
	}
	weight := verifySet(t, req, resp)
	g, _ := req.BuildGraph()
	if _, floor := g.Greedy(); weight != floor {
		t.Fatalf("local fallback weight %d != degraded tier %d", weight, floor)
	}
	if st := c.Stats(); st.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d", st.Fallbacks)
	}
}

// TestClusterProbeResurrection: ProbeOnce both kills and resurrects; a
// recovered backend rejoins the ring without operator action.
func TestClusterProbeResurrection(t *testing.T) {
	fleet := newFleet(t, 2)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// The solve path suspects backend 0 (as it would on a transient error)
	// and removes it from the ring.
	c.markDead(c.byName[fleet.urls[0]])
	if got := c.ring.Members(); len(got) != 1 || got[0] != fleet.urls[1] {
		t.Fatalf("members after suspected death = %v", got)
	}

	// The backend is actually healthy: the next probe clears the suspicion
	// and rebalances it back in.
	c.ProbeOnce(context.Background())
	if got := c.ring.Size(); got != 2 {
		t.Fatalf("ring size after resurrection = %d, want 2", got)
	}
	if st := c.Stats(); st.BackendsAlive != 2 {
		t.Fatalf("BackendsAlive = %d", st.BackendsAlive)
	}

	// And a genuinely dead backend stays out across probes.
	fleet.ts[0].Close()
	c.ProbeOnce(context.Background())
	c.ProbeOnce(context.Background())
	if got := c.ring.Members(); len(got) != 1 || got[0] != fleet.urls[1] {
		t.Fatalf("members after real death = %v", got)
	}
}

// TestClusterRejectsUnsupported: graph_ref, async and fault-schedule
// requests are caller errors at the cluster layer.
func TestClusterRejectsUnsupported(t *testing.T) {
	fleet := newFleet(t, 1)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cases := []struct {
		name string
		req  server.SolveRequest
	}{
		{"graph_ref", server.SolveRequest{GraphRef: "sha256:deadbeef"}},
		{"async", server.SolveRequest{Gen: &server.GenSpec{Kind: "cycle", N: 10}, Async: true}},
		{"fault", server.SolveRequest{Gen: &server.GenSpec{Kind: "cycle", N: 10}, Fault: &server.FaultSpec{Loss: 0.1}}},
	}
	for _, tc := range cases {
		_, err := c.Solve(context.Background(), &tc.req)
		var reqErr *RequestError
		if err == nil || !errors.As(err, &reqErr) {
			t.Errorf("%s: err = %v, want RequestError", tc.name, err)
		}
	}
}

// TestClusterHandler drives the coordinator through its HTTP face the way
// the front maxisd mounts it.
func TestClusterHandler(t *testing.T) {
	fleet := newFleet(t, 2)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	body, _ := json.Marshal(server.SolveRequest{Gen: &server.GenSpec{Kind: "gnp", N: 120, P: 0.05, Weights: "uniform", Seed: 9}})
	hr, err := http.Post(front.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "done" || !resp.Verified || len(resp.Set) == 0 {
		t.Fatalf("handler response: status=%q verified=%t size=%d", resp.Status, resp.Verified, resp.Size)
	}
	if !strings.HasPrefix(resp.ID, "cl-") {
		t.Fatalf("cluster response id %q", resp.ID)
	}

	// A GET is a method error; a bad body is a 400.
	if gr, err := http.Get(front.URL); err == nil {
		if gr.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET status %d", gr.StatusCode)
		}
		gr.Body.Close()
	}
	br, err := http.Post(front.URL, "application/json", strings.NewReader(`{"graph_ref":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("graph_ref over HTTP: status %d, want 400", br.StatusCode)
	}
	br.Body.Close()

	var buf bytes.Buffer
	c.WriteMetrics(&buf)
	for _, want := range []string{"cluster_solves_total 1", "cluster_backends_alive 2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// partStub is a backend that answers every part with answer applied to
// the part graph it was sent, under that graph's hash.
func partStub(t *testing.T, answer func(g *graph.Graph) []bool) *httptest.Server {
	t.Helper()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.SolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g, err := graph.FromCanonical(req.Canonical)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		set := answer(g)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(server.SolveResponse{
			Status: "done", Set: graph.Members(set), Size: graph.SetSize(set),
			Weight: g.SetWeight(set), GraphHash: graph.HashCanonical(req.Canonical),
		})
	}))
	t.Cleanup(stub.Close)
	return stub
}

// stubSolve runs one partitioned solve of g against a partStub backend.
func stubSolve(t *testing.T, g *graph.Graph, answer func(g *graph.Graph) []bool) Response {
	t.Helper()
	c, err := New([]string{partStub(t, answer).URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	resp, err := c.Solve(context.Background(), &server.SolveRequest{Canonical: g.Canonical()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Parts) != 3 || !resp.Verified {
		t.Fatalf("parts=%d verified=%t, want a verified 3-part answer", len(resp.Parts), resp.Verified)
	}
	return resp
}

// TestReadmitMaximality: parts answered with their own greedy sets
// conflict on cut edges; after the withdrawals, re-admission restores
// maximality without breaking independence.
func TestReadmitMaximality(t *testing.T) {
	g := gen.Weighted(gen.UnionOfForests(200, 4, 5), gen.UniformWeights(1000), 5)
	resp := stubSolve(t, g, func(g *graph.Graph) []bool { set, _ := g.Greedy(); return set })
	if resp.Withdrawn == 0 || resp.Readmitted == 0 || resp.Floor {
		t.Fatalf("withdrawn=%d readmitted=%d floor=%t, want withdrawals healed by re-admission", resp.Withdrawn, resp.Readmitted, resp.Floor)
	}
	set := graph.FromMembers(resp.Set, g.N())
	if !g.IsIndependentSet(set) || !g.IsMaximalIS(set) {
		t.Fatal("re-admitted merge is not a maximal independent set")
	}
}

// TestWeightOrderPathsAgree: every host-side answer — the server's shed
// tier, the coordinator's local fallback, re-admission of an empty merge,
// the availability floor and the repair tier's improved answer at any
// budget — is graph.Greedy's set. The graphs have few distinct weights and
// identifiers that do not ascend with index, so the paths agree only if
// they share one tie-break.
func TestWeightOrderPathsAgree(t *testing.T) {
	fleet := newFleet(t, 1)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var graphs []*graph.Graph
	for seed := uint64(1); seed <= 3; seed++ {
		planted, _ := gen.PlantedIS(300, 40, 3, 0.03, seed)
		graphs = append(graphs, planted,
			gen.RandomIDs(gen.Weighted(gen.GNP(300, 0.03, seed), gen.UniformWeights(3), seed), 1<<20, seed))
	}
	floors := 0
	for i, g := range graphs {
		want, wantWeight := g.Greedy()
		check := func(path string, members []int32) {
			t.Helper()
			if !graph.SameSet(graph.FromMembers(members, g.N()), want) {
				t.Errorf("graph %d: %s differs from graph.Greedy", i, path)
			}
		}

		shed, err := c.Solve(context.Background(), &server.SolveRequest{Canonical: g.Canonical(), Degraded: true})
		if err != nil || !shed.Degraded {
			t.Fatalf("graph %d: shed solve: err=%v degraded=%t", i, err, shed.Degraded)
		}
		check("server shed answer", shed.Set)
		check("coordinator localWhole", c.localWhole(g, "").Set)

		empty := stubSolve(t, g, func(g *graph.Graph) []bool { return make([]bool, g.N()) })
		if empty.Floor || empty.Readmitted != graph.SetSize(want) || empty.Weight != wantWeight {
			t.Errorf("graph %d: empty merge: floor=%t readmitted=%d weight=%d", i, empty.Floor, empty.Readmitted, empty.Weight)
		}
		check("re-admission of an empty merge", empty.Set)

		// Each part offers only its last-ranked node; the re-admitted merge
		// keeps those light nodes, so the floor usually wins.
		light := stubSolve(t, g, func(g *graph.Graph) []bool {
			set := make([]bool, g.N())
			order := g.WeightOrder()
			set[order[len(order)-1]] = true
			return set
		})
		if light.Floor {
			floors++
			check("coordinator floor", light.Set)
		}

		for _, budget := range []int{1, 7, g.N()} {
			var improved []bool
			tier := repair.New(repair.Options{Budget: budget, Interval: time.Hour, Publish: func(_ string, a repair.Answer) {
				if a.Quality == repair.QualityImproved {
					improved = a.Set
				}
			}})
			tier.Enqueue(repair.Task{Key: "k", G: g, Start: make([]bool, g.N())})
			for tier.Step() {
			}
			tier.Stop()
			check(fmt.Sprintf("repair tier at budget %d", budget), graph.Members(improved))
		}
	}
	if floors == 0 {
		t.Fatal("the floor never won, so its answer went unchecked")
	}
}

// TestClusterShipsCanonicalBytes: parts and whole inline graphs reach the
// backend as canonical bytes, never as a JSON graph, while a whole-graph
// gen spec stays a spec so the backend's spec memo still applies.
func TestClusterShipsCanonicalBytes(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []server.SolveRequest
	)
	backend := server.New(server.Options{Workers: 2})
	recorder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			body, _ := io.ReadAll(r.Body)
			var req server.SolveRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("backend got an undecodable request: %v", err)
			}
			mu.Lock()
			seen = append(seen, req)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		backend.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(recorder)
	defer ts.Close()
	c, err := New([]string{ts.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var small bytes.Buffer
	if err := gen.Cycle(12).WriteJSON(&small); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		req       server.SolveRequest
		parts     int
		canonical bool
	}{
		{"partitioned", server.SolveRequest{Gen: &server.GenSpec{Kind: "gnp", N: 150, P: 0.04, Seed: 3}}, 3, true},
		{"whole-inline", server.SolveRequest{Graph: small.Bytes()}, 1, true},
		{"whole-gen", server.SolveRequest{Gen: &server.GenSpec{Kind: "cycle", N: 12}}, 1, false},
	}
	for _, tc := range cases {
		mu.Lock()
		seen = nil
		mu.Unlock()
		resp, err := c.Solve(context.Background(), &tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		verifySet(t, &tc.req, resp)
		mu.Lock()
		got := seen
		mu.Unlock()
		if len(got) != tc.parts {
			t.Fatalf("%s: backend saw %d requests, want %d", tc.name, len(got), tc.parts)
		}
		for i, r := range got {
			if r.Graph != nil || (r.Canonical != nil) != tc.canonical || (r.Gen != nil) == tc.canonical {
				t.Errorf("%s: request %d has graph=%t canonical=%t gen=%t", tc.name, i, r.Graph != nil, r.Canonical != nil, r.Gen != nil)
			}
		}
	}
}

// TestClusterRejectsWrongPartHash: a backend that answers for a graph
// other than the one it was sent fails the solve instead of having its
// set merged into the answer.
func TestClusterRejectsWrongPartHash(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(server.SolveResponse{
			Status: "done", Set: []int32{0}, Size: 1, Weight: 1,
			GraphHash: strings.Repeat("0", 64),
		})
	}))
	defer stub.Close()
	c, err := New([]string{stub.URL}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	for _, req := range []server.SolveRequest{
		{Gen: &server.GenSpec{Kind: "gnp", N: 150, P: 0.04, Seed: 3}},
		{Gen: &server.GenSpec{Kind: "cycle", N: 12}},
	} {
		resp, err := c.Solve(context.Background(), &req)
		var reqErr *RequestError
		if err == nil || errors.As(err, &reqErr) || !strings.Contains(err.Error(), "answered for graph "+strings.Repeat("0", 64)) {
			t.Fatalf("%s: err = %v (resp %+v), want a backend hash-mismatch error", req.Gen.Kind, err, resp)
		}
	}
	if st := c.Stats(); st.LocalParts != 0 || st.Fallbacks != 0 {
		t.Fatalf("a hash mismatch fell back locally: %+v", st)
	}
}
