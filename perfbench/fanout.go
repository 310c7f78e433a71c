package main

import (
	"encoding/json"
	"fmt"

	"distmwis/internal/cluster"
	"distmwis/internal/exact"
	"distmwis/internal/graph"
	"distmwis/internal/partition"
	"distmwis/internal/server"
)

// cluster-fanout: three in-process backends behind cluster.New, mounted on
// a front maxisd at /v1/cluster/solve. Every request is a distinct gnp spec
// above MinFanoutNodes, so every request partitions, fans out, reconciles
// and verifies. The only workload that loads partition and cluster (and
// the backends' inline decode and solve path); it bypasses the result
// cache hits, the graph store and repair.
const (
	fanN        = 1500
	fanP        = 8.0 / fanN
	fanBackends = 3
	fanOps      = 1 << 14
	fanWarm     = 2
	fanWindow   = 32
)

type clusterFanout struct {
	reqs []server.SolveRequest
	list []op
	warm []call
}

func newClusterFanout(seed uint64) *clusterFanout {
	base := rng(seed, 4).Uint64() >> 20
	c := &clusterFanout{}
	for i := 0; i < fanOps+fanWarm; i++ {
		req := genRequest(fanN, fanP, base+uint64(i)+1)
		cl := call{method: "POST", path: "/v1/cluster/solve", body: mustJSON(req), span: "cluster.solve"}
		if i < fanOps {
			c.reqs = append(c.reqs, req)
			c.list = append(c.list, op{calls: []call{cl}})
		} else {
			c.warm = append(c.warm, cl)
		}
	}
	return c
}

func (c *clusterFanout) clients() int { return 2 }
func (c *clusterFanout) setups() int  { return 9 }
func (c *clusterFanout) ops() []op    { return c.list }

func (c *clusterFanout) boot(t *tracer) (*system, error) {
	sys := &system{}
	fail := func(err error) (*system, error) {
		sys.close()
		return nil, err
	}
	var urls []string
	for b := 0; b < fanBackends; b++ {
		_, base, err := sys.startServer(serverOptions(), t.backend)
		if err != nil {
			return fail(err)
		}
		urls = append(urls, base)
	}
	coord, err := cluster.New(urls, cluster.Options{})
	if err != nil {
		return fail(err)
	}
	coord.Start()
	sys.coord = coord
	opts := serverOptions()
	opts.Cluster, opts.ClusterMetrics = coord.Handler(), coord.WriteMetrics
	front, base, err := sys.startServer(opts, t.front)
	if err != nil {
		return fail(err)
	}
	sys.front, sys.snd = front, newSender(base)
	if err := sys.warm(c.warm); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	return sys, nil
}

func (c *clusterFanout) stages(i int, ot *opTrace) {
	req, ok := replayDecode(ot, 0, c.list[i].calls[0].body)
	if !ok {
		return
	}
	var g *graph.Graph
	ot.replay(0, "gen.build", func() { g, _ = req.BuildGraph() })
	if g == nil {
		return
	}
	var part *partition.Partition
	ot.replay(0, "partition.split", func() {
		part, _ = partition.Split(g, partition.Options{Parts: fanBackends, Balance: 1.2})
	})
	if part == nil {
		return
	}
	ot.t.value("partition.cut_edges", float64(len(part.CutEdges)))
	maxN := 0
	for _, sub := range part.Parts {
		maxN = max(maxN, sub.G.N())
	}
	ot.t.value("partition.size_imbalance", float64(maxN*part.K)/float64(g.N()))
	// The part solves run on the backends inside cluster.part spans; these
	// benchmark-side solves of the same parts measure maxis and congest.
	for _, sub := range part.Parts {
		replaySolve(ot, 0, kindRef, req, sub.G)
	}
}

func (c *clusterFanout) verify(res []opResult, before, after counters, t *tracer) verdict {
	v := newVerdict(fanWindow)
	for i := range res {
		if !res[i].done {
			continue
		}
		v.attempted++
		cr := res[i].calls[0]
		if f := httpFailure(cr); f != "" {
			v.fail(f)
			continue
		}
		var resp cluster.Response
		if err := json.Unmarshal(cr.body, &resp); err != nil {
			v.fail("undecodable answer")
			continue
		}
		g, err := c.reqs[i].BuildGraph()
		if err != nil {
			v.fail("rebuild graph: " + err.Error())
			continue
		}
		if !resp.Verified {
			v.fail("answer not verified by the coordinator")
			continue
		}
		if f := checkSolve(g, g.HashString(), &resp.SolveResponse); f != "" {
			v.fail(f)
			continue
		}
		if i < fanWindow {
			ref, _ := exact.GreedyMWIS(g)
			v.inWindow(resp.Weight, ref)
		}
		t.value("cluster.conflicts", float64(resp.Conflicts))
		t.value("cluster.readmitted", float64(resp.Readmitted))
		t.value("cluster.floor", b2f(resp.Floor))
		answerValues(t, &resp.SolveResponse)
	}
	d := func(a, b int64) int64 { return a - b }
	a, b := after.cluster, before.cluster
	if got := d(a.Partitioned, b.Partitioned); got != int64(v.attempted) {
		v.violate("%d of %d cluster solves were partitioned", got, v.attempted)
	}
	if r, l, f := d(a.Reroutes, b.Reroutes), d(a.LocalParts, b.LocalParts), d(a.Fallbacks, b.Fallbacks); r != 0 || l != 0 || f != 0 {
		v.violate("reroutes=%d local parts=%d fallbacks=%d, want all 0", r, l, f)
	}
	return v
}
