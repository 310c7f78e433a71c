package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"distmwis/internal/exact"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/server"
)

// hot-inline: a small working set of inline graph bodies of a few hundred
// KB, all solved during warm-up, so every timed request is a cache hit. The
// work is request decoding, graph.ReadJSON, Canonical/Hash, the cache
// lookup and response encoding. Bypasses gen, the scheduler, maxis, congest
// and mis (no round loop runs), the graph store, repair and cluster.
const (
	hotGraphs = 8
	hotN      = 4000
	hotP      = 0.0015
	hotOps    = 1 << 15
)

type hotInline struct {
	graphs []*graph.Graph
	hashes []string
	refs   []int64
	which  []int // working-set index of each operation
	list   []op
	warm   []call
}

func newHotInline(seed uint64) *hotInline {
	h := &hotInline{}
	r := rng(seed, 2)
	calls := make([]call, hotGraphs)
	for w := 0; w < hotGraphs; w++ {
		gseed := r.Uint64()
		g := gen.Weighted(gen.GNP(hotN, hotP, gseed), gen.PolyWeights(2), gseed)
		var doc bytes.Buffer
		if err := g.WriteJSON(&doc); err != nil {
			panic(fmt.Sprintf("encode working-set graph: %v", err)) // in-memory write cannot fail
		}
		ref, _ := exact.GreedyMWIS(g)
		body := mustJSON(server.SolveRequest{Graph: json.RawMessage(doc.Bytes()), Alg: "theorem2"})
		h.graphs = append(h.graphs, g)
		h.hashes = append(h.hashes, g.HashString())
		h.refs = append(h.refs, ref)
		calls[w] = call{method: "POST", path: "/v1/solve", body: body, span: "server.handler"}
	}
	h.warm = calls
	// The sequence opens with the whole working set in seeded order (the
	// quality window), then draws uniformly from it.
	h.which = append(h.which, r.Perm(hotGraphs)...)
	for len(h.which) < hotOps {
		h.which = append(h.which, r.IntN(hotGraphs))
	}
	for _, w := range h.which {
		h.list = append(h.list, op{calls: []call{calls[w]}})
	}
	return h
}

func (h *hotInline) clients() int { return 2 }
func (h *hotInline) setups() int  { return 9 }
func (h *hotInline) ops() []op    { return h.list }

func (h *hotInline) boot(t *tracer) (*system, error) { return bootSingle(t, h.warm) }

func (h *hotInline) stages(i int, ot *opTrace) {
	req, ok := replayDecode(ot, 0, h.list[i].calls[0].body)
	if !ok {
		return
	}
	var g *graph.Graph
	ot.replayAllocs(0, "graph.read_json", func() { g, _ = graph.ReadJSON(bytes.NewReader(req.Graph)) })
	if g == nil {
		return
	}
	replayHash(ot, 0, g, req)
}

func (h *hotInline) verify(res []opResult, before, after counters, t *tracer) verdict {
	v := newVerdict(hotGraphs)
	uncached := 0
	for i := range res {
		if !res[i].done {
			continue
		}
		v.attempted++
		resp, f := decodeSolve(res[i].calls[0])
		if f != "" {
			v.fail(f)
			continue
		}
		if !resp.Cached {
			uncached++
		}
		w := h.which[i]
		if f := checkSolve(h.graphs[w], h.hashes[w], &resp); f != "" {
			v.fail(f)
			continue
		}
		if i < hotGraphs {
			v.inWindow(resp.Weight, h.refs[w])
		}
		answerValues(t, &resp)
	}
	if uncached > 0 {
		v.violate("%d hot-inline answers missed the cache", uncached)
	}
	return v
}
