package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// islandGraph builds comps disjoint components of k nodes each — a gnp(k, p)
// graph plus a Hamiltonian path, so every component is connected — with
// poly2 weights. At 16 × 150 it is the mutable-graph serving shape.
func islandGraph(comps, k int, p float64, seed uint64) *graph.Graph {
	n := comps * k
	b := graph.NewBuilder(n)
	for c := 0; c < comps; c++ {
		off := c * k
		part := gen.GNP(k, p, seed+uint64(c)+1)
		for v := 0; v < k; v++ {
			if v+1 < k {
				b.AddEdge(off+v, off+v+1)
			}
			for _, u := range part.Neighbors(v) {
				if int(u) > v {
					b.AddEdge(off+v, off+int(u))
				}
			}
		}
	}
	b.SetWeights(gen.PolyWeights(2)(n, seed))
	return b.MustBuild()
}

// BenchmarkPatchRefSolve times one dynamic-graph operation over HTTP on the
// 16 × 150 shape: a PATCH (alternately a weight update and an edge toggle
// inside one component) followed by a graph_ref solve of the new version.
func BenchmarkPatchRefSolve(b *testing.B) {
	_, ts := newTestServer(b, Options{Workers: 4, SolveWorkers: 1, QueueDepth: 256, CacheBytes: 64 << 20})
	g := islandGraph(16, 150, 0.04, 1)
	put := putGraph(b, ts, g)
	if code, resp := postSolve(b, ts, SolveRequest{GraphRef: put.Hash, Alg: "theorem2"}); code != http.StatusOK {
		b.Fatalf("warm-up solve: %d %+v", code, resp)
	}
	// One toggle pair per component, on a pair the base graph lacks.
	pairs := make([][2]int32, 16)
	on := make([]bool, 16)
	for c := range pairs {
		u, v := c*150+5, c*150+77
		for g.HasEdge(u, v) {
			v++
		}
		pairs[c] = [2]int32{int32(u), int32(v)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := (i * 7) % 16
		var e graph.Edit
		if i%2 == 0 {
			e.Weights = []graph.WeightUpdate{{V: int32(c*150 + i%150), W: int64(1 + (i*7919)%5_000_000)}}
		} else if on[c] {
			e.RemoveEdges = [][2]int32{pairs[c]}
		} else {
			e.AddEdges = [][2]int32{pairs[c]}
		}
		if e.Weights == nil {
			on[c] = !on[c]
		}
		if code, resp := patchGraph(b, ts, put.Hash, e); code != http.StatusOK {
			b.Fatalf("PATCH: %d %+v", code, resp)
		}
		if code, resp := postSolve(b, ts, SolveRequest{GraphRef: put.Hash, Alg: "theorem2"}); code != http.StatusOK {
			b.Fatalf("ref solve: %d %+v", code, resp)
		}
	}
}

// BenchmarkColdRequest is one cold-solve request through the HTTP handler:
// a fresh gnp(2000, 0.004, poly2) generator spec per iteration, so every
// request misses the cache and pays for the whole cold path — decode, gen,
// canonical hash and cache key, plan, the Theorem 2 solve and the encoded
// answer. Its B/op is the cold request's allocation budget.
func BenchmarkColdRequest(b *testing.B) {
	s := New(Options{Workers: 4, SolveWorkers: 1, QueueDepth: 256, CacheBytes: 64 << 20})
	b.Cleanup(func() { _ = s.Drain() })
	h := s.Handler()
	body := func(seed int) []byte {
		raw, err := json.Marshal(SolveRequest{
			Gen: &GenSpec{Kind: "gnp", N: 2000, P: 0.004, Weights: "poly2", Seed: uint64(seed)},
			Alg: "theorem2",
		})
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := body(i + 1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			b.Fatalf("cold solve: %d %s", rec.Code, rec.Body)
		}
	}
}
