package main

import (
	"bytes"
	"encoding/json"

	"distmwis/internal/exact"
	"distmwis/internal/graph"
	"distmwis/internal/maxis"
	"distmwis/internal/plan"
	"distmwis/internal/protocol"
	"distmwis/internal/server"
	"distmwis/internal/trace"
)

// cold-solve: every request is a fresh generator spec (distinct graph
// seeds), so every request misses the cache and runs the paper's pipeline
// as a service: gen builds the graph, maxis runs theorem2 on the congest
// simulator with the mis black box. Bypasses the result cache, inline
// decoding (graph.ReadJSON), the graph store, repair, partition and cluster.
const (
	coldN      = 2000
	coldP      = 0.004
	coldOps    = 1 << 14
	coldWarm   = 4
	coldWindow = 32
)

type coldSolve struct {
	reqs []server.SolveRequest
	list []op
	warm []call
}

func newColdSolve(seed uint64) *coldSolve {
	// Graph seeds are a seed-derived base plus the operation index, so
	// they are distinct within a run; warm-up graphs come after them.
	base := rng(seed, 1).Uint64() >> 20
	c := &coldSolve{}
	for i := 0; i < coldOps+coldWarm; i++ {
		req := genRequest(coldN, coldP, base+uint64(i)+1)
		cl := call{method: "POST", path: "/v1/solve", body: mustJSON(req), span: "server.handler"}
		if i < coldOps {
			c.reqs = append(c.reqs, req)
			c.list = append(c.list, op{calls: []call{cl}})
		} else {
			c.warm = append(c.warm, cl)
		}
	}
	return c
}

func (c *coldSolve) clients() int { return 2 }
func (c *coldSolve) setups() int  { return 9 }
func (c *coldSolve) ops() []op    { return c.list }

func (c *coldSolve) boot(t *tracer) (*system, error) {
	return bootSingle(t, c.warm)
}

func (c *coldSolve) stages(i int, ot *opTrace) {
	req, ok := replayDecode(ot, 0, c.list[i].calls[0].body)
	if !ok {
		return
	}
	var g *graph.Graph
	ot.replay(0, "gen.build", func() { g, _ = req.BuildGraph() })
	if g == nil {
		return
	}
	replayHash(ot, 0, g, req)
	ot.ref(0, "plan.choose", func() {
		mis, _ := protocol.MISByName(req.MIS)
		_, _ = plan.For(g, protocol.Params{Eps: req.Eps, Alpha: req.Alpha}, plan.ForDeadline(req.DeadlineMS, 0), mis)
	})
	replaySolve(ot, 0, kindReplay, req, g)
}

func (c *coldSolve) verify(res []opResult, before, after counters, t *tracer) verdict {
	v := newVerdict(coldWindow)
	cached := 0
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
		if resp.Cached {
			cached++
		}
		g, err := c.reqs[i].BuildGraph()
		if err != nil {
			v.fail("rebuild graph: " + err.Error())
			continue
		}
		if f := checkSolve(g, g.HashString(), &resp); f != "" {
			v.fail(f)
			continue
		}
		if i < coldWindow {
			ref, _ := exact.GreedyMWIS(g)
			v.inWindow(resp.Weight, ref)
		}
		answerValues(t, &resp)
	}
	if cached > 0 {
		v.violate("%d cold-solve answers came from the cache", cached)
	}
	return v
}

// decodeSolve decodes a /v1/solve answer, or classifies why it failed.
func decodeSolve(c callResult) (server.SolveResponse, string) {
	var resp server.SolveResponse
	if f := httpFailure(c); f != "" {
		return resp, f
	}
	if err := json.Unmarshal(c.body, &resp); err != nil {
		return resp, "undecodable answer"
	}
	return resp, ""
}

// answerValues records the per-answer layer samples of a solve answer.
func answerValues(t *tracer, resp *server.SolveResponse) {
	t.value("server.cached", b2f(resp.Cached))
	t.value("server.shared", b2f(resp.Shared))
	if !resp.Cached {
		t.value("maxis.rounds", float64(resp.Rounds))
		t.value("maxis.messages", float64(resp.Messages))
		t.value("maxis.bits", float64(resp.Bits))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// replayDecode reproduces the handler's first stage: JSON-decode the body
// into a server.SolveRequest and normalize it.
func replayDecode(ot *opTrace, k int, body []byte) (server.SolveRequest, bool) {
	var req server.SolveRequest
	var err error
	ot.replay(k, "server.decode", func() {
		if err = json.NewDecoder(bytes.NewReader(body)).Decode(&req); err == nil {
			err = req.Normalize()
		}
	})
	return req, err == nil
}

// replayHash reproduces the cache-key stages: the canonical form and the
// content hash, then the config fingerprint.
func replayHash(ot *opTrace, k int, g *graph.Graph, req server.SolveRequest) {
	var canon []byte
	ot.replay(k, "graph.hash", func() {
		canon = g.Canonical()
		_ = g.HashString()
	})
	ot.t.value("graph.canonical_kb", float64(len(canon))/1024)
	ot.replay(k, "server.fingerprint", func() { _ = req.Fingerprint() })
}

// solveConfig mirrors the server's maxis.Config for a normalized request
// without faults (one engine worker, the named MIS box), with an engine
// tracer attached as the server attaches its own.
func solveConfig(req server.SolveRequest, tr *trace.Totals) maxis.Config {
	mis, _ := protocol.MISByName(req.MIS)
	cfg := maxis.Config{Seed: req.Seed, MIS: mis, Workers: 1}
	if tr != nil {
		cfg.Tracer, cfg.TraceLabel = tr, req.Alg
	}
	return cfg
}

// replaySolve runs maxis.Solve on g as the server's worker would and
// records the congest round-loop totals.
func replaySolve(ot *opTrace, k int, kind string, req server.SolveRequest, g *graph.Graph) {
	var tr trace.Totals
	cfg := solveConfig(req, &tr)
	ot.timed(ot.handlers[k], "maxis.solve", kind, true, func() {
		_, _ = maxis.Solve(req.Alg, g, req.Eps, req.Alpha, cfg)
	})
	engineValues(ot.t, &tr)
}

func engineValues(t *tracer, tr *trace.Totals) {
	s := tr.Snapshot()
	t.value("congest.rounds", float64(s.Rounds))
	t.value("congest.messages", float64(s.Messages))
	t.value("congest.ns", float64(s.ComputeNanos+s.DeliveryNanos))
}
