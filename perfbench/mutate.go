package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"distmwis/internal/exact"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/server"
	"distmwis/internal/trace"
)

// mutate-ref: the set-up PUTs four multi-component graphs; operation i is
// a PATCH of graph i mod 4 (a weight update or an edge toggle inside one
// component) followed by a graph_ref solve of it, timed as a pair. With two
// clients each graph has one writer, so its versions are a fixed sequence.
// It loads the graph store (ApplyEdit, advance, component invalidation),
// maxis.SolveByComponent, the heal path and the background repair tier.
// Bypasses gen, inline decoding of large bodies, partition and cluster.
// It runs without the graph journal: fsync on a shared disk is not steady.
const (
	mutHandles = 4
	mutComps   = 16
	mutCompN   = 150
	mutP       = 0.04
	mutPairs   = 8
	mutOps     = 1 << 14
	mutWindow  = 32
)

type mutateRef struct {
	base  []*graph.Graph
	hash0 []string
	edits []graph.Edit
	list  []op
	puts  []call
	solve []call

	// Traced runs mirror the server's per-handle state benchmark-side:
	// the current version and the component answers the server's cache
	// holds for it.
	shadow []*graph.Graph
	comps  []map[string][]int32
}

// multiComponent builds comps disjoint connected gnp components (each a gnp
// graph plus a Hamiltonian path, so it stays one component) with poly2
// weights.
func multiComponent(seed uint64) *graph.Graph {
	n := mutComps * mutCompN
	b := graph.NewBuilder(n)
	for c := 0; c < mutComps; c++ {
		off := c * mutCompN
		part := gen.GNP(mutCompN, mutP, seed+uint64(c)+1)
		for v := 0; v < mutCompN; v++ {
			if v+1 < mutCompN {
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

func newMutateRef(seed uint64) *mutateRef {
	m := &mutateRef{}
	r := rng(seed, 3)
	type toggle struct {
		pair [2]int32
		on   bool
	}
	pairs := make([][][]toggle, mutHandles)
	for h := 0; h < mutHandles; h++ {
		g := multiComponent(r.Uint64() >> 8)
		var doc bytes.Buffer
		if err := g.WriteJSON(&doc); err != nil {
			panic(fmt.Sprintf("encode graph: %v", err)) // in-memory write cannot fail
		}
		hash := g.HashString()
		m.base = append(m.base, g)
		m.hash0 = append(m.hash0, hash)
		m.puts = append(m.puts, call{method: "PUT", path: "/v1/graph", body: doc.Bytes()})
		m.solve = append(m.solve, call{method: "POST", path: "/v1/solve",
			body: mustJSON(server.SolveRequest{GraphRef: hash, Alg: "theorem2"}), span: "server.ref_solve"})
		// Each component gets a few non-adjacent node pairs whose edge the
		// workload toggles on and off, so the graph's shape stays stationary.
		pairs[h] = make([][]toggle, mutComps)
		for c := 0; c < mutComps; c++ {
			off := c * mutCompN
			for len(pairs[h][c]) < mutPairs {
				u, v := off+r.IntN(mutCompN), off+r.IntN(mutCompN)
				if u == v || g.HasEdge(u, v) {
					continue
				}
				pairs[h][c] = append(pairs[h][c], toggle{pair: [2]int32{int32(u), int32(v)}})
			}
		}
	}
	maxW := int64(mutComps*mutCompN) * int64(mutComps*mutCompN)
	for i := 0; i < mutOps; i++ {
		h := i % mutHandles
		c := r.IntN(mutComps)
		var e graph.Edit
		if r.IntN(2) == 0 {
			e.Weights = []graph.WeightUpdate{{V: int32(c*mutCompN + r.IntN(mutCompN)), W: 1 + r.Int64N(maxW)}}
		} else {
			t := &pairs[h][c][r.IntN(mutPairs)]
			if t.on {
				e.RemoveEdges = [][2]int32{t.pair}
			} else {
				e.AddEdges = [][2]int32{t.pair}
			}
			t.on = !t.on
		}
		m.edits = append(m.edits, e)
		patch := call{method: "PATCH", path: "/v1/graph/" + m.hash0[h], body: mustJSON(e), span: "server.patch"}
		m.list = append(m.list, op{calls: []call{patch, m.solve[h]}})
	}
	return m
}

func (m *mutateRef) clients() int { return 2 }
func (m *mutateRef) setups() int  { return 9 }
func (m *mutateRef) ops() []op    { return m.list }

func (m *mutateRef) boot(t *tracer) (*system, error) {
	sys, err := bootSingle(t, m.puts, m.solve)
	if err != nil || t == nil {
		return sys, err
	}
	// Mirror the warmed server: every component of each handle answered.
	m.shadow = append([]*graph.Graph(nil), m.base...)
	m.comps = make([]map[string][]int32, mutHandles)
	for h := range m.comps {
		m.comps[h] = make(map[string][]int32)
		cfg := solveConfig(refRequest(), nil)
		if _, _, err := maxis.SolveByComponent("theorem2", m.base[h], 0.5, 0, cfg, m.componentCache(h)); err != nil {
			sys.close()
			return nil, fmt.Errorf("mirror warm-up: %w", err)
		}
	}
	return sys, nil
}

// refRequest is the normalized form of the workload's graph_ref request.
func refRequest() server.SolveRequest {
	req := server.SolveRequest{GraphRef: "x", Alg: "theorem2"}
	_ = req.Normalize()
	return req
}

func (m *mutateRef) componentCache(h int) maxis.ComponentCache {
	return maxis.ComponentCache{
		Lookup: func(hash string) ([]int32, bool) { s, ok := m.comps[h][hash]; return s, ok },
		Store:  func(hash string, set []int32, _ int64) { m.comps[h][hash] = set },
	}
}

func (m *mutateRef) stages(i int, ot *opTrace) {
	h := i % mutHandles
	var ng *graph.Graph
	ot.replay(0, "graph.apply_edit", func() { ng, _, _ = m.shadow[h].ApplyEdit(m.edits[i]) })
	if ng == nil {
		return
	}
	// The PATCH path hashes the new version and each of its components,
	// the diff base for component-granular invalidation.
	live := make(map[string]bool, mutComps)
	ot.replay(0, "graph.hash", func() {
		_ = ng.HashString()
		comp, count := ng.Components()
		keep := make([]bool, ng.N())
		for c := 0; c < count; c++ {
			for v := range keep {
				keep[v] = comp[v] == int32(c)
			}
			live[ng.Induce(keep).G.HashString()] = true
		}
	})
	for hash := range m.comps[h] {
		if !live[hash] {
			delete(m.comps[h], hash)
		}
	}
	m.shadow[h] = ng
	var tr trace.Totals
	cfg := solveConfig(refRequest(), &tr)
	var stats maxis.ComponentStats
	ot.replayAllocs(1, "maxis.solve", func() {
		_, stats, _ = maxis.SolveByComponent("theorem2", ng, 0.5, 0, cfg, m.componentCache(h))
	})
	ot.t.value("maxis.components_resolved", float64(stats.Solved))
	engineValues(ot.t, &tr)
}

func (m *mutateRef) verify(res []opResult, before, after counters, t *tracer) verdict {
	v := newVerdict(mutWindow)
	patches, healed := 0, 0
	for h := 0; h < mutHandles; h++ {
		shadow := m.base[h]
		broken := ""
		for i := h; i < len(res) && res[i].done; i += mutHandles {
			v.attempted++
			patches++
			if broken != "" {
				v.fail(broken)
				continue
			}
			pc := res[i].calls[0]
			if f := httpFailure(pc); f != "" {
				v.fail("PATCH " + f)
				broken = "unverifiable after a failed PATCH"
				continue
			}
			var pr server.PatchGraphResponse
			if err := json.Unmarshal(pc.body, &pr); err != nil {
				v.fail("undecodable PATCH answer")
				broken = "unverifiable after a failed PATCH"
				continue
			}
			ng, _, err := shadow.ApplyEdit(m.edits[i])
			if err != nil {
				v.fail("shadow edit: " + err.Error())
				broken = "unverifiable after a failed PATCH"
				continue
			}
			hash := ng.HashString()
			shadow = ng
			if pr.Hash != hash {
				v.fail("wrong answer: PATCH hash")
				broken = "unverifiable after a diverged PATCH"
				continue
			}
			if pr.Healed {
				healed++
			}
			t.value("server.invalidated", float64(pr.InvalidatedComponents))
			resp, f := decodeSolve(res[i].calls[1])
			if f == "" {
				f = checkSolve(ng, hash, &resp)
			}
			if f != "" {
				v.fail(f)
				continue
			}
			if i < mutWindow {
				ref, _ := exact.GreedyMWIS(ng)
				v.inWindow(resp.Weight, ref)
			}
			answerValues(t, &resp)
		}
	}
	if got := after.svc.Mutations - before.svc.Mutations; got != int64(patches) {
		v.violate("the server counted %d mutations for %d PATCHes", got, patches)
	}
	t.value("repair.healed", float64(healed))
	return v
}
