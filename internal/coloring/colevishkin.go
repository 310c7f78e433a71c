package coloring

import (
	"fmt"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/wire"
)

// CanonicalRingSuccessorPorts returns, for the canonical n-cycle produced
// by gen.Cycle, each node's port towards its successor (v+1 mod n). An
// oriented ring is the standard input assumption of Cole–Vishkin; the
// orientation is part of the instance, not something the nodes compute.
func CanonicalRingSuccessorPorts(n int) []int {
	ports := make([]int, n)
	for v := 0; v < n; v++ {
		switch v {
		case 0, n - 1:
			// Node 0's sorted neighbours are [1, n-1]: successor 1 is port 0.
			// Node n-1's sorted neighbours are [0, n-2]: successor 0 is port 0.
			ports[v] = 0
		default:
			// Sorted neighbours are [v-1, v+1]: successor is port 1.
			ports[v] = 1
		}
	}
	return ports
}

// ColeVishkinRing computes a deterministic proper 3-colouring of an
// oriented ring in O(log* n) rounds — the upper bound matching the
// Ω(log* n) cycle lower bounds of Linial [34] and Naor [36] (the paper's
// Theorem 7). succPort[v] is node v's port towards its ring successor.
//
// Phase 1 runs the classic bit-index reduction against the predecessor's
// colour until the palette is {0..5}; the iteration count is derived
// deterministically from the identifier bound, so all nodes stop together.
// Phase 2 removes colours 5, 4, 3 one at a time.
func ColeVishkinRing(g *graph.Graph, succPort []int, c congest.Config) (*Result, error) {
	n := g.N()
	if n < 3 {
		return nil, fmt.Errorf("coloring: ring needs n ≥ 3, got %d", n)
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) != 2 {
			return nil, fmt.Errorf("coloring: node %d has degree %d; not a ring", v, g.Degree(v))
		}
		if succPort[v] != 0 && succPort[v] != 1 {
			return nil, fmt.Errorf("coloring: bad successor port for node %d", v)
		}
	}
	colors := make([]int, g.N())
	res, err := congest.Run(g, func(p *coleVishkin) { p.succPorts = succPort }, c,
		func(v int, p *coleVishkin) { colors[v] = int(p.colour) })
	if err != nil {
		return nil, fmt.Errorf("coloring: cole-vishkin: %w", err)
	}
	return collect(colors, res), nil
}

// cvReductionRounds computes how many bit-index reductions shrink a colour
// space of the given size into {0..5}. Every node derives the same count
// from the shared identifier bound — this is where the log* comes from.
func cvReductionRounds(space uint64) int {
	rounds := 0
	for space > 6 {
		bitsNeeded := uint64(wire.BitsFor(space - 1))
		space = 2 * bitsNeeded
		rounds++
	}
	return rounds
}

type coleVishkin struct {
	info      congest.NodeInfo
	succPorts []int
	succPort  int
	predPort  int
	colour    uint64
	space     uint64 // current colour-space size
	reduce    int    // remaining phase-1 rounds
	needSeed  bool   // phase 2 needs an initial both-sides announcement
	phase2    int    // 0,1,2 → removing colour 5,4,3
}

func (p *coleVishkin) Init(info congest.NodeInfo) {
	p.info = info
	p.succPort = p.succPorts[info.Index]
	p.predPort = 1 - p.succPort
	p.colour = info.ID
	p.space = info.MaxID + 1
	p.reduce = cvReductionRounds(p.space)
	// Tiny identifier spaces skip phase 1 entirely; phase 2 still needs to
	// hear both neighbours before recolouring.
	p.needSeed = p.reduce == 0
}

// sendColour emits the current colour on the given ports.
func (p *coleVishkin) sendColour(ports ...int) {
	var w wire.Writer
	w.WriteUint(p.colour, p.space-1)
	for _, port := range ports {
		p.info.Send(port, &w)
	}
}

func (p *coleVishkin) Round(round int, recv []*congest.Message) bool {
	if p.needSeed {
		p.needSeed = false
		p.sendColour(0, 1)
		return false
	}
	if p.reduce > 0 {
		// Phase 1. Round 1 just seeds the pipeline; afterwards each round
		// consumes the predecessor's colour and emits the reduced one.
		if round > 1 {
			predColour := p.colour ^ 1 // fallback: pretend pred differs in bit 0
			if m := recv[p.predPort]; m != nil {
				r := m.Reader()
				c, err := r.ReadUint(p.space - 1)
				// Exact-width check rejects stale duplicates from earlier
				// rounds (wider colour space); equality can only arise from
				// injected faults and would loop applyReduction forever.
				if err == nil && r.Remaining() == 0 && c != p.colour {
					predColour = c
				}
			}
			p.applyReduction(predColour)
			p.reduce--
			if p.reduce == 0 {
				p.space = 6
				// Fall through to phase 2 seeding: announce to both sides.
				p.sendColour(0, 1)
				return false
			}
		}
		p.sendColour(p.succPort)
		return false
	}

	// Phase 2: three sub-phases of (hear both neighbours, recolour if mine
	// is the colour being removed, announce). Each sub-phase is one round
	// after the initial both-sides announcement.
	removing := uint64(5 - p.phase2)
	used := [6]bool{}
	for _, m := range recv {
		if m == nil {
			continue
		}
		r := m.Reader()
		c, err := r.ReadUint(p.space - 1)
		if err != nil || r.Remaining() != 0 {
			continue // garbled or stale duplicate under faults: treat as missing
		}
		if c < 6 {
			used[c] = true
		}
	}
	if p.colour == removing {
		for c := uint64(0); c < 3; c++ {
			if !used[c] {
				p.colour = c
				break
			}
		}
	}
	p.phase2++
	if p.phase2 == 3 {
		return true
	}
	p.sendColour(0, 1)
	return false
}

// applyReduction is the Cole–Vishkin step: find the lowest bit where the
// own colour differs from the predecessor's and encode (index, bit).
func (p *coleVishkin) applyReduction(pred uint64) {
	diff := p.colour ^ pred
	k := uint64(0)
	for diff&1 == 0 {
		diff >>= 1
		k++
	}
	bit := (p.colour >> k) & 1
	p.colour = 2*k + bit
	bitsNeeded := uint64(wire.BitsFor(p.space - 1))
	p.space = 2 * bitsNeeded
}

// RingMIS composes Cole–Vishkin with the colouring→MIS conversion: a
// deterministic MIS of an oriented ring in O(log* n) rounds, matching
// Naor's randomized lower bound (Theorem 7) from above. Returns the MIS,
// the total rounds, and the colouring used.
func RingMIS(g *graph.Graph, succPort []int, c congest.Config) ([]bool, int, *Result, error) {
	col, err := ColeVishkinRing(g, succPort, c)
	if err != nil {
		return nil, 0, nil, err
	}
	set, misExec, err := MISFromColoring(g, col, c)
	if err != nil {
		return nil, 0, nil, err
	}
	return set, col.Exec.Rounds + misExec.Rounds, col, nil
}
