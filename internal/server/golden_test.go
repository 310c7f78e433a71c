package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/maxis"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden files")

// TestGoldenSolveResponses pins the POST /v1/solve response body for every
// algorithm across the protocol-registry refactor. The volatile fields
// (id, elapsed_ms) are normalised before comparison; everything else —
// set, weight, graph hash, counters, status — must be byte-identical to
// the goldens generated from the pre-refactor tree.
func TestGoldenSolveResponses(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	algs := maxis.AlgorithmNames()
	got := make(map[string]json.RawMessage, len(algs))
	for _, alg := range algs {
		spec := &GenSpec{Kind: "gnp", N: 40, P: 0.1, Weights: "poly2", Seed: 7}
		if alg == "theorem5" {
			spec.Weights = "" // theorem5 rejects weighted inputs by contract
		}
		body, err := json.Marshal(SolveRequest{Gen: spec, Alg: alg, Seed: 3, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		httpResp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := normalizeResponseBody(httpResp.Body)
		httpResp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", alg, httpResp.StatusCode, raw)
		}
		got[alg] = raw
	}

	compareGolden(t, filepath.Join("testdata", "golden_responses.json"), got)
}

// compareGolden checks got against the golden file at path, or rewrites
// the file under -update-golden.
func compareGolden(t *testing.T, path string, got map[string]json.RawMessage) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d responses to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, wantBody := range want {
		// The golden file stores each body indented; compact before the
		// byte comparison so only real content drift fails the test.
		var buf bytes.Buffer
		if err := json.Compact(&buf, wantBody); err != nil {
			t.Fatalf("%s: bad golden body: %v", name, err)
		}
		if !bytes.Equal(got[name], buf.Bytes()) {
			t.Errorf("response drift for %s:\n got  %s\n want %s", name, got[name], buf.Bytes())
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s missing from golden file (regenerate with -update-golden)", name)
		}
	}
}

// normalizeResponseBody re-marshals a SolveResponse with the per-request
// volatile fields cleared, yielding a canonical byte form.
func normalizeResponseBody(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	var resp SolveResponse
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return nil, err
	}
	resp.ID = ""
	resp.ElapsedMS = 0
	return json.Marshal(resp)
}

// TestGoldenRefResponses pins the graph_ref responses of POST /v1/solve on
// a two-component graph: a fresh component-wise solve, the cache hit that
// follows, an explicitly degraded solve, and the solve after a PATCH that
// touches one component. The repair tier never ticks during the test, so
// no background upgrade can race the pinned bodies.
func TestGoldenRefResponses(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, RepairInterval: time.Hour})
	g := twoIslandGraph(t, 8, 20)
	put := putGraph(t, ts, g)
	req := SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 3}

	got := make(map[string]json.RawMessage)
	solve := func(name string, req SolveRequest) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		httpResp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := normalizeResponseBody(httpResp.Body)
		httpResp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, httpResp.StatusCode, raw)
		}
		got[name] = raw
	}
	solve("1-full", req)
	solve("2-cache-hit", req)
	degraded := req
	degraded.Degraded = true
	solve("3-degraded", degraded)
	if code, patch := patchGraph(t, ts, put.Hash, graph.Edit{AddEdges: [][2]int32{{9, 18}}}); code != http.StatusOK {
		t.Fatalf("patch: %d %+v", code, patch)
	}
	solve("4-after-patch", req)

	compareGolden(t, filepath.Join("testdata", "golden_ref_responses.json"), got)
}
