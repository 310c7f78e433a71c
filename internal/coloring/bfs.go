package coloring

import (
	"fmt"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/wire"
)

// DistributedBFSTree builds a BFS tree as a genuine CONGEST protocol: the
// maximum-identifier node elects itself the root via flooding, and every
// node adopts as parent the port on which the best (rootID, distance) pair
// first arrived. The protocol runs for the caller-supplied round budget,
// which must be at least the graph's diameter plus one (the standard
// "known bound on D" assumption for BFS; an n-derived bound works but
// costs n rounds).
//
// Returns the tree and the executed rounds. It exists to back
// ColorClassApprox with a fully distributed pipeline and to measure the
// Θ(D) flooding cost of Open Question 2 directly rather than charging it
// analytically.
func DistributedBFSTree(g *graph.Graph, budget int, c congest.Config) (*Tree, *congest.Result, error) {
	if g.N() == 0 {
		return &Tree{}, &congest.Result{}, nil
	}
	// Assemble the tree from per-node (rootID, dist, parentPort) outputs.
	type nodeOut struct {
		rootID     uint64
		dist       int
		parentPort int
	}
	outs := make([]nodeOut, g.N())
	res, err := congest.Run(g, func(p *bfsBuild) { p.budget = budget }, c, func(v int, p *bfsBuild) {
		outs[v] = nodeOut{rootID: p.rootID, dist: p.dist, parentPort: p.parentPort}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("coloring: distributed BFS: %w", err)
	}
	var rootID uint64
	for _, o := range outs {
		rootID = max(rootID, o.rootID)
	}
	tree := &Tree{ParentPort: make([]int, g.N()), ChildPorts: make([][]int, g.N())}
	for v := 0; v < g.N(); v++ {
		if outs[v].rootID != rootID {
			return nil, nil, fmt.Errorf("coloring: node %d never heard the root; budget %d below diameter", v, budget)
		}
		tree.ParentPort[v] = outs[v].parentPort
		if outs[v].parentPort == -1 {
			tree.Root = v
		}
		if outs[v].dist > tree.Depth {
			tree.Depth = outs[v].dist
		}
	}
	for v := 0; v < g.N(); v++ {
		if v == tree.Root {
			continue
		}
		parent := int(g.Neighbors(v)[tree.ParentPort[v]])
		for port, u := range g.Neighbors(parent) {
			if int(u) == v {
				tree.ChildPorts[parent] = append(tree.ChildPorts[parent], port)
				break
			}
		}
	}
	return tree, res, nil
}

// bfsBuild floods (rootID, dist) pairs; each node keeps the
// lexicographically best (max rootID, min dist) and remembers the port it
// arrived on.
type bfsBuild struct {
	info       congest.NodeInfo
	budget     int
	rootID     uint64
	dist       int
	parentPort int
	changed    bool
}

func (p *bfsBuild) Init(info congest.NodeInfo) {
	p.info = info
	p.rootID = info.ID
	p.dist = 0
	p.parentPort = -1
	p.changed = true
}

func (p *bfsBuild) Round(round int, recv []*congest.Message) bool {
	for port, m := range recv {
		if m == nil {
			continue
		}
		r := m.Reader()
		id, e1 := r.ReadUint(p.info.MaxID)
		d64, e2 := r.ReadUint(uint64(p.info.NUpper))
		if e1 != nil || e2 != nil {
			continue // garbled under faults: treat as missing
		}
		d := int(d64) + 1
		if id > p.rootID || (id == p.rootID && d < p.dist) {
			p.rootID = id
			p.dist = d
			p.parentPort = port
			p.changed = true
		}
	}
	done := round >= p.budget
	if !p.changed {
		return done
	}
	p.changed = false
	var w wire.Writer
	w.WriteUint(p.rootID, p.info.MaxID)
	w.WriteUint(uint64(p.dist), uint64(p.info.NUpper))
	p.info.Broadcast(&w)
	return done
}
