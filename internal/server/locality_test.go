package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
)

// smallComponents is a graph of 109 components, most of one or two nodes
// (gnp n = 300, p = 0.004, uniform weights up to 3). Run one component at
// a time under its own bounds, a two-node component gets B = 8 bits and
// cannot carry the parent's identifiers.
func smallComponents(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Spec{Kind: "gnp", N: 300, P: 0.004, Seed: 1, Weights: "uniform", MaxW: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Every solver that answers an inline solve of the graph answers the
// graph_ref solve of the same content too, with the identical set and
// weight: the two paths are one answer function.
func TestRefSolveMatchesInline(t *testing.T) {
	g := smallComponents(t)
	_, inline := newTestServer(t, Options{Workers: 2})
	_, ref := newTestServer(t, Options{Workers: 2})
	put := putGraph(t, ref, g)
	answered := 0
	for _, alg := range maxis.AlgorithmNames() {
		code, want := postSolve(t, inline, SolveRequest{Graph: json.RawMessage(graphJSON(t, g)), Alg: alg, Seed: 4})
		if code != http.StatusOK {
			continue
		}
		answered++
		code, got := postSolve(t, ref, SolveRequest{GraphRef: put.Hash, Alg: alg, Seed: 4})
		if code != http.StatusOK {
			t.Errorf("%s: inline 200, graph_ref %d: %s", alg, code, got.Error)
			continue
		}
		if !slices.Equal(got.Set, want.Set) || got.Weight != want.Weight {
			t.Errorf("%s: graph_ref weight %d, inline %d", alg, got.Weight, want.Weight)
		}
	}
	if answered < len(maxis.AlgorithmNames())-2 {
		t.Fatalf("only %d solvers answered the inline solve", answered)
	}
}

// A graph_ref solve and an inline solve of the same content share one
// cache line, and whichever path fills it, the other reads what an inline
// solve on a fresh server reports: the set and weight, and the rounds,
// messages, bits and guarantee of one whole-graph run. A graph_ref run
// over only the components the component cache missed, or the repair
// tier's re-solve after a shed, must not fill the line with its own
// metrics.
func TestRefSolveSharesInlineCacheLine(t *testing.T) {
	g := smallComponents(t)
	edit := graph.Edit{Weights: []graph.WeightUpdate{{V: 0, W: g.Weight(0)%3 + 1}}}
	ng, _, err := g.ApplyEdit(edit)
	if err != nil {
		t.Fatal(err)
	}
	const alg, seed = "theorem2", 2
	inline := func(ts *httptest.Server, g *graph.Graph) SolveResponse {
		t.Helper()
		code, resp := postSolve(t, ts, SolveRequest{Graph: json.RawMessage(graphJSON(t, g)), Alg: alg, Seed: seed})
		if code != http.StatusOK {
			t.Fatalf("inline solve: %d %s", code, resp.Error)
		}
		return resp
	}
	ref := func(ts *httptest.Server, hash string, degraded bool) SolveResponse {
		t.Helper()
		code, resp := postSolve(t, ts, SolveRequest{GraphRef: hash, Alg: alg, Seed: seed, Degraded: degraded})
		if code != http.StatusOK {
			t.Fatalf("graph_ref solve: %d %s", code, resp.Error)
		}
		return resp
	}
	same := func(order string, got, want SolveResponse) {
		t.Helper()
		if !slices.Equal(got.Set, want.Set) || got.Weight != want.Weight || got.Rounds != want.Rounds ||
			got.Messages != want.Messages || got.Bits != want.Bits || got.Alg != want.Alg || got.Guarantee != want.Guarantee {
			t.Errorf("%s: weight %d, %d rounds, %d messages, %d bits, %q %q; a fresh inline solve gives weight %d, %d rounds, %d messages, %d bits, %q %q",
				order, got.Weight, got.Rounds, got.Messages, got.Bits, got.Alg, got.Guarantee,
				want.Weight, want.Rounds, want.Messages, want.Bits, want.Alg, want.Guarantee)
		}
	}
	_, fresh := newTestServer(t, Options{Workers: 2})
	want, wantNg := inline(fresh, g), inline(fresh, ng)

	_, ts := newTestServer(t, Options{Workers: 2})
	inline(ts, g)
	put := putGraph(t, ts, g)
	if resp := ref(ts, put.Hash, false); !resp.Cached {
		t.Error("inline then graph_ref: the graph_ref solve missed the cache")
	} else {
		same("inline then graph_ref", resp, want)
	}

	_, ts = newTestServer(t, Options{Workers: 2})
	put = putGraph(t, ts, g)
	same("graph_ref", ref(ts, put.Hash, false), want)
	if resp := inline(ts, g); !resp.Cached {
		t.Error("graph_ref then inline: the inline solve missed the cache")
	} else {
		same("graph_ref then inline", resp, want)
	}
	_, patch := patchGraph(t, ts, put.Hash, edit)
	if resp := ref(ts, patch.Hash, false); !slices.Equal(resp.Set, wantNg.Set) || resp.Rounds >= wantNg.Rounds && resp.Messages >= wantNg.Messages {
		t.Errorf("graph_ref after PATCH: weight %d, %d rounds, %d messages; want weight %d from a run over the changed component only",
			resp.Weight, resp.Rounds, resp.Messages, wantNg.Weight)
	}
	same("graph_ref over cached components then inline", inline(ts, ng), wantNg)

	_, ts = newTestServer(t, Options{Workers: 2, RepairInterval: time.Millisecond})
	put = putGraph(t, ts, g)
	waitQuality(t, ts, ref(ts, put.Hash, true).AnswerKey, "full")
	same("shed graph_ref then inline", inline(ts, g), want)
	_, patch = patchGraph(t, ts, put.Hash, edit)
	waitQuality(t, ts, ref(ts, patch.Hash, true).AnswerKey, "full")
	same("shed graph_ref over cached components then inline", inline(ts, ng), wantNg)
}

// Weights too wide for B bits (a single edge with weights 1000 and 900
// against B = 8) break the paper's W = poly(n) assumption: the solvers
// that ship weights answer 422 and name the assumption, not 500.
func TestWideWeightsAre422(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.SetWeights([]int64{1000, 900})
	doc := json.RawMessage(graphJSON(t, b.MustBuild()))
	for _, alg := range []string{"theorem1", "theorem2", "theorem3", "goodnodes"} {
		code, resp := postSolve(t, ts, SolveRequest{Graph: doc, Alg: alg})
		if code != http.StatusUnprocessableEntity || !strings.Contains(resp.Error, "poly(n)") {
			t.Errorf("%s: %d %q, want 422 naming the poly(n) assumption", alg, code, resp.Error)
		}
	}
}
