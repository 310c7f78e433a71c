package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"distmwis/internal/graph/gen"
	"distmwis/internal/server"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden files")

// TestGoldenClusterResponses pins POST /v1/cluster/solve response bodies on
// both routes: partitioned fan-outs of a gen spec and of an inline graph,
// and whole-graph solves of an inline graph (twice, so the repeat is a
// backend cache hit) and of a gen spec. The volatile fields are cleared
// before comparison: id, elapsed_ms, and each part's backend, which names
// an httptest listener whose port (and so its ring position) changes from
// run to run. Everything else — sets, weights, graph hashes, part
// provenance, reconciliation counters — must be byte-identical.
func TestGoldenClusterResponses(t *testing.T) {
	fleet := newFleet(t, 3)
	c, err := New(fleet.urls, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	inline := func(n int, p float64, seed uint64) json.RawMessage {
		var buf bytes.Buffer
		g := gen.Weighted(gen.GNP(n, p, seed), gen.UniformWeights(1000), seed)
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		req  server.SolveRequest
	}{
		{"1-partitioned-gen", server.SolveRequest{Gen: &server.GenSpec{Kind: "gnp", N: 240, P: 0.03, Weights: "poly2", Seed: 11}, Seed: 3}},
		{"2-partitioned-inline", server.SolveRequest{Graph: inline(200, 0.04, 5), Alg: "goodnodes", Seed: 2}},
		{"3-whole-inline", server.SolveRequest{Graph: inline(40, 0.1, 7), Seed: 4}},
		{"4-whole-inline-repeat", server.SolveRequest{Graph: inline(40, 0.1, 7), Seed: 4}},
		{"5-whole-gen", server.SolveRequest{Gen: &server.GenSpec{Kind: "cycle", N: 40, Weights: "uniform", Seed: 9}}},
	}
	got := make(map[string]json.RawMessage, len(cases))
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(front.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		err = json.NewDecoder(hr.Body).Decode(&resp)
		hr.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, hr.StatusCode, resp.Error)
		}
		resp.ID, resp.ElapsedMS = "", 0
		for i := range resp.Parts {
			resp.Parts[i].Backend = ""
		}
		if got[tc.name], err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Partitioned != 2 || st.WholeGraph != 3 {
		t.Fatalf("routes: partitioned=%d whole=%d, want 2 and 3", st.Partitioned, st.WholeGraph)
	}
	compareGolden(t, filepath.Join("testdata", "golden_cluster_responses.json"), got)
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
