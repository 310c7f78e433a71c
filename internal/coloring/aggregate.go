package coloring

import (
	"fmt"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/wire"
)

// Tree is a rooted spanning tree used for aggregation. The paper's
// Section 8 observation is that even given a (Δ+1)-colouring, *selecting*
// the maximum-weight colour class needs Ω(D) rounds; the tree is the
// standard primitive that realizes (and exhibits) that cost.
type Tree struct {
	// Root is the root node index.
	Root int
	// ParentPort[v] is v's port towards its parent (-1 at the root).
	ParentPort []int
	// ChildPorts[v] lists v's ports towards its children.
	ChildPorts [][]int
	// Depth is the tree height in edges.
	Depth int
}

// BuildBFSTree constructs a BFS spanning tree of a connected graph rooted
// at root. (Building it distributedly costs Θ(D) rounds of flooding; the
// experiment charges that separately — see E14.)
func BuildBFSTree(g *graph.Graph, root int) (*Tree, error) {
	n := g.N()
	dist := g.BFSDistances(root)
	t := &Tree{
		Root:       root,
		ParentPort: make([]int, n),
		ChildPorts: make([][]int, n),
	}
	for v := 0; v < n; v++ {
		if dist[v] < 0 {
			return nil, fmt.Errorf("coloring: graph disconnected; node %d unreachable from root %d", v, root)
		}
		if int(dist[v]) > t.Depth {
			t.Depth = int(dist[v])
		}
		t.ParentPort[v] = -1
		for port, u := range g.Neighbors(v) {
			if v != root && dist[u] == dist[v]-1 && t.ParentPort[v] == -1 {
				t.ParentPort[v] = port
			}
		}
	}
	// Children: u is v's child iff u's chosen parent is v.
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		pPort := t.ParentPort[v]
		parent := int(g.Neighbors(v)[pPort])
		for port, u := range g.Neighbors(parent) {
			if int(u) == v {
				t.ChildPorts[parent] = append(t.ChildPorts[parent], port)
			}
		}
	}
	return t, nil
}

// MaxWeightClass finds the maximum-total-weight colour class distributedly:
// a pipelined convergecast of the k per-colour weight sums up the tree
// (one (colour, sum) pair per edge per round — CONGEST-sized), an argmax at
// the root, and a winner broadcast back down. Round cost ≈ depth + k +
// depth, the Ω(D) barrier of Open Question 2. Returns the winning class as
// an independent set (colour classes of proper colourings are independent).
func MaxWeightClass(g *graph.Graph, col *Result, tree *Tree, c congest.Config) ([]bool, int, *congest.Result, error) {
	k := col.NumColors
	winners := make([]int, g.N())
	res, err := congest.Run(g, func(p *classAggregate) {
		p.colors, p.k, p.tree = col.Colors, k, tree
	}, c, func(v int, p *classAggregate) { winners[v] = p.winner })
	if err != nil {
		return nil, 0, nil, fmt.Errorf("coloring: aggregation: %w", err)
	}
	winner := -1
	set := make([]bool, g.N())
	for v, w := range winners {
		if w < 0 {
			return nil, 0, nil, fmt.Errorf("coloring: node %d never learned the winner", v)
		}
		if winner == -1 {
			winner = w
		} else if winner != w {
			return nil, 0, nil, fmt.Errorf("coloring: nodes disagree on winner (%d vs %d)", winner, w)
		}
		set[v] = col.Colors[v] == w
	}
	return set, winner, res, nil
}

// classAggregate is one node's state in MaxWeightClass.
type classAggregate struct {
	info   congest.NodeInfo
	colors []int
	k      int
	tree   *Tree

	sums      []int64 // accumulated per-colour subtree sums
	childDone []int   // per colour: number of children whose value arrived
	sentUpTo  int     // last colour index already sent to the parent
	winner    int
	maxSum    int64
}

func (p *classAggregate) Init(info congest.NodeInfo) {
	p.info = info
	p.sums = make([]int64, p.k)
	p.childDone = make([]int, p.k)
	p.sums[p.colors[info.Index]] += info.Weight
	p.sentUpTo = -1
	p.winner = -1
	p.maxSum = int64(info.NUpper) * info.MaxWeight
	if p.maxSum < info.MaxWeight { // overflow guard; generators keep n·W < 2^61
		p.maxSum = 1 << 61
	}
}

func (p *classAggregate) isRoot() bool { return p.tree.ParentPort[p.info.Index] == -1 }

func (p *classAggregate) children() []int { return p.tree.ChildPorts[p.info.Index] }

// colourComplete reports whether colour c has arrived from every child.
func (p *classAggregate) colourComplete(c int) bool {
	return p.childDone[c] == len(p.children())
}

func (p *classAggregate) Round(round int, recv []*congest.Message) bool {
	// Absorb: child pairs move sums up; a parent message announces the
	// winner.
	for port, m := range recv {
		if m == nil {
			continue
		}
		r := m.Reader()
		isDown, e1 := r.ReadBool()
		c64, e2 := r.ReadUint(uint64(p.k - 1))
		sum, e3 := r.ReadInt(p.maxSum)
		if e1 != nil || e2 != nil || e3 != nil || int(c64) >= p.k {
			continue // garbled under faults: treat as missing
		}
		if isDown {
			p.winner = int(c64)
			continue
		}
		c := int(c64)
		p.sums[c] += sum
		p.childDone[c]++
		_ = port
	}

	// Downward phase: forward the winner once and stop.
	if p.winner >= 0 {
		p.forwardWinner()
		return true
	}

	// Root argmax once everything arrived.
	if p.isRoot() {
		all := true
		for c := 0; c < p.k; c++ {
			if !p.colourComplete(c) {
				all = false
				break
			}
		}
		if all {
			best := 0
			for c := 1; c < p.k; c++ {
				if p.sums[c] > p.sums[best] {
					best = c
				}
			}
			p.winner = best
			p.forwardWinner()
			return true
		}
		return false
	}

	// Upward pipeline: send the next complete colour to the parent.
	if next := p.sentUpTo + 1; next < p.k && p.colourComplete(next) {
		p.sentUpTo = next
		var w wire.Writer
		w.WriteBool(false)
		w.WriteUint(uint64(next), uint64(p.k-1))
		w.WriteInt(p.sums[next], p.maxSum)
		p.info.Send(p.tree.ParentPort[p.info.Index], &w)
	}
	return false
}

func (p *classAggregate) forwardWinner() {
	var w wire.Writer
	w.WriteBool(true)
	w.WriteUint(uint64(p.winner), uint64(p.k-1))
	w.WriteInt(0, p.maxSum)
	for _, port := range p.children() {
		p.info.Send(port, &w)
	}
}

// ColorClassApprox is the end-to-end Section 8 pipeline: (Δ+1)-colour the
// graph, elect a root and build a BFS tree by flooding (a genuine CONGEST
// protocol; nodes are assumed to know a bound on the diameter, the
// standard BFS assumption), then select the maximum-weight colour class
// over the tree. The returned set is an independent set of weight
// ≥ w(V)/(Δ+1) — a (Δ+1)-approximation — but the round count carries the
// Θ(D) flooding/aggregation cost that Open Question 2 asks whether one can
// avoid. Returns the set, total measured rounds, and the tree depth.
func ColorClassApprox(g *graph.Graph, seed uint64) ([]bool, int, int, error) {
	col, err := RandomGreedy(g, congest.Config{Seed: seed})
	if err != nil {
		return nil, 0, 0, err
	}
	// The diameter bound handed to the flooding protocol ("nodes know D"):
	// one eccentricity e satisfies e ≤ D ≤ 2e.
	ecc := 0
	for _, d := range g.BFSDistances(0) {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	budget := 2*(ecc+1) + 2
	tree, bfsExec, err := DistributedBFSTree(g, budget, congest.Config{Seed: seed + 2})
	if err != nil {
		return nil, 0, 0, err
	}
	set, _, exec, err := MaxWeightClass(g, col, tree, congest.Config{Seed: seed + 1})
	if err != nil {
		return nil, 0, 0, err
	}
	totalRounds := col.Exec.Rounds + bfsExec.Rounds + exec.Rounds
	return set, totalRounds, tree.Depth, nil
}
