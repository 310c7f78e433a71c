// Package coloring implements the distributed colouring machinery the
// paper's Discussion section (Section 8) and lower-bound section build on.
//
// Two threads of the paper motivate it:
//
//   - Open Question 2 (§8): sequentially, a (Δ+1)-colouring yields a
//     (Δ+1)-approximation for MaxIS by taking the max-weight colour class —
//     but distributedly, *finding* that class costs Ω(D) rounds, D the
//     diameter. This package provides the (Δ+1)-colouring protocol, the
//     colour-class aggregation over a BFS tree (whose round cost is ≈ 2D+k,
//     exhibiting the Ω(D) barrier), and the colouring→MIS conversion, so
//     experiment E14 can chart the barrier against the paper's D-independent
//     algorithms.
//   - Sections 2.4/7: the Ω(log* n) cycle lower bounds of Linial [34] and
//     Naor [36] are matched by the Cole–Vishkin deterministic 3-colouring;
//     implementing it (E15) shows the log* upper-bound side of Theorem 4's
//     landscape.
package coloring

import (
	"fmt"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
	"distmwis/internal/wire"
)

func init() {
	// The uniform-start protocols register into the protocol registry so
	// the registry-driven parity suite covers them on every engine.
	// Cole–Vishkin is deliberately absent: its processes need per-node
	// successor ports (ring topology input), so it stays a direct library
	// call (ColeVishkinRing).
	protocol.RegisterProcess(protocol.KindColoring, "randomgreedy",
		"randomized (Δ+1)-colouring by conflict-free proposals; O(log n) rounds w.h.p.",
		func(g *graph.Graph, c congest.Config) (*congest.Result, []int, error) {
			col, err := RandomGreedy(g, c)
			if err != nil {
				return nil, nil, err
			}
			return col.Exec, col.Colors, nil
		})
}

// Result is a computed colouring.
type Result struct {
	// Colors assigns each node a colour in [0, NumColors).
	Colors []int
	// NumColors is the size of the palette actually needed (max+1).
	NumColors int
	// Exec carries simulator metrics.
	Exec *congest.Result
}

// Verify returns an error unless colors is a proper colouring of g with
// every colour below limit (pass limit ≤ 0 to skip the palette check).
func Verify(g *graph.Graph, colors []int, limit int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colours for %d nodes", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] < 0 {
			return fmt.Errorf("coloring: node %d uncoloured", v)
		}
		if limit > 0 && colors[v] >= limit {
			return fmt.Errorf("coloring: node %d colour %d ≥ limit %d", v, colors[v], limit)
		}
		for _, u := range g.Neighbors(v) {
			if colors[u] == colors[v] {
				return fmt.Errorf("coloring: edge {%d,%d} monochromatic (colour %d)", v, u, colors[v])
			}
		}
	}
	return nil
}

// RandomGreedy computes a (Δ+1)-colouring with the classical randomized
// trial protocol: every uncoloured node proposes a uniform colour from
// {0..deg(v)} minus its neighbours' fixed colours and keeps it unless a
// higher-ID neighbour proposed the same colour in the same round.
// Terminates in O(log n) rounds with high probability; each node uses at
// most deg(v)+1 ≤ Δ+1 colours.
func RandomGreedy(g *graph.Graph, c congest.Config) (*Result, error) {
	colors := make([]int, g.N())
	res, err := congest.Run(g, nil, c, func(v int, p *greedyColour) { colors[v] = p.colour })
	if err != nil {
		return nil, fmt.Errorf("coloring: random greedy: %w", err)
	}
	return collect(colors, res), nil
}

// collect wraps a run's colours as a Result.
func collect(colors []int, res *congest.Result) *Result {
	numColors := 0
	for _, c := range colors {
		numColors = max(numColors, c+1)
	}
	return &Result{Colors: colors, NumColors: numColors, Exec: res}
}

// greedyColour is one node's state in RandomGreedy. Iterations take two
// rounds: propose (odd) and resolve (even). Finalized colours are
// announced once; the announcement doubles as the node's last message.
type greedyColour struct {
	info     congest.NodeInfo
	taken    []bool // colours fixed by neighbours (index ≤ deg)
	colour   int
	proposal int
	fixed    bool
}

func (p *greedyColour) Init(info congest.NodeInfo) {
	p.info = info
	p.taken = make([]bool, info.Degree+1)
	p.colour = -1
	p.proposal = -1
}

// colourField sizes the wire field: colours < deg+1 ≤ n.
func (p *greedyColour) colourField() uint64 { return uint64(p.info.NUpper) }

func (p *greedyColour) Round(round int, recv []*congest.Message) bool {
	// Absorb everything first: finals update the palette; proposals are
	// only meaningful on resolve rounds.
	type prop struct {
		colour int
		id     uint64
	}
	var proposals []prop
	for _, m := range recv {
		if m == nil {
			continue
		}
		r := m.Reader()
		isFinal, e1 := r.ReadBool()
		c64, e2 := r.ReadUint(p.colourField())
		id, e3 := r.ReadUint(p.info.MaxID)
		if e1 != nil || e2 != nil || e3 != nil {
			continue // garbled under faults: treat as missing
		}
		c := int(c64)
		if isFinal {
			if c < len(p.taken) {
				p.taken[c] = true
			}
		} else {
			proposals = append(proposals, prop{colour: c, id: id})
		}
	}

	if round%2 == 1 { // propose round
		if p.info.Degree == 0 {
			p.colour = 0
			return true
		}
		free := make([]int, 0, len(p.taken))
		for c, t := range p.taken {
			if !t {
				free = append(free, c)
			}
		}
		// deg+1 palette minus ≤ deg fixed neighbours is never empty.
		p.proposal = free[p.info.Rand.IntN(len(free))]
		var w wire.Writer
		w.WriteBool(false)
		w.WriteUint(uint64(p.proposal), p.colourField())
		w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.Broadcast(&w)
		return false
	}

	// resolve round
	win := p.proposal >= 0 && !p.taken[p.proposal]
	if win {
		for _, q := range proposals {
			if q.colour == p.proposal && q.id > p.info.ID {
				win = false
				break
			}
		}
	}
	if !win {
		p.proposal = -1
		return false
	}
	p.colour = p.proposal
	p.fixed = true
	var w wire.Writer
	w.WriteBool(true)
	w.WriteUint(uint64(p.colour), p.colourField())
	w.WriteUint(p.info.ID, p.info.MaxID)
	p.info.Broadcast(&w)
	return true
}

// TracePhase labels the two-round trial cadence for tracers.
func (p *greedyColour) TracePhase(round int) string {
	if round%2 == 1 {
		return "propose"
	}
	return "resolve"
}

// MISFromColoring converts a proper colouring into an MIS in NumColors+1
// rounds: colour classes join in order, skipping dominated nodes — the
// classical colouring→MIS reduction the paper's Section 8 discusses.
func MISFromColoring(g *graph.Graph, col *Result, c congest.Config) ([]bool, *congest.Result, error) {
	colors := col.Colors
	k := col.NumColors
	set := make([]bool, g.N())
	res, err := congest.Run(g, func(p *colourClassMIS) {
		p.colors, p.k = colors, k
	}, c, func(v int, p *colourClassMIS) { set[v] = p.joined })
	if err != nil {
		return nil, nil, fmt.Errorf("coloring: MIS conversion: %w", err)
	}
	return set, res, nil
}

// colourClassMIS joins colour class r-1 in round r. Independence of the
// result relies on the colouring being proper; under fault injection that
// assumption can break (a corrupted colouring protocol may emit
// monochromatic edges), so fault mode switches to a defensive variant: see
// faultyRound.
type colourClassMIS struct {
	info      congest.NodeInfo
	colors    []int
	k         int
	myColor   int
	joined    bool
	dominated bool
}

func (p *colourClassMIS) Init(info congest.NodeInfo) {
	p.info = info
	p.myColor = p.colors[info.Index]
}

func (p *colourClassMIS) Round(round int, recv []*congest.Message) bool {
	if p.info.Faulty {
		return p.faultyRound(round, recv)
	}
	for _, m := range recv {
		if m == nil {
			continue
		}
		joined, _ := m.Reader().ReadBool()
		if joined {
			p.dominated = true
		}
	}
	if round-1 == p.myColor && !p.dominated {
		p.joined = true
		var w wire.Writer
		w.WriteBool(true)
		p.info.Broadcast(&w)
		return true
	}
	return p.dominated || round > p.k
}

// faultyRound is the defensive conversion used under fault injection.
// Every node broadcasts (joined, colour+1, ID) every round until round
// k+2 — halting early would starve later colour classes of the joined
// bits they need — and colour class c joins one round later than the
// fault-free schedule, at round c+2, once a full round of neighbour
// broadcasts is in hand. A node only joins when it has a parseable
// message from every port, no neighbour has joined, and it wins the ID
// tie-break against any neighbour claiming the same colour (which a
// faulty colouring protocol can produce). Because the joined bit is
// re-broadcast every round, the current round's messages carry all the
// state a join decision needs — missing or garbled information always
// means "do not join": safety is unconditional, weight degrades instead.
func (p *colourClassMIS) faultyRound(round int, recv []*congest.Message) bool {
	informed := true
	blocked := false
	for _, m := range recv {
		if m == nil {
			informed = false
			continue
		}
		r := m.Reader()
		nbrJoined, e1 := r.ReadBool()
		nbrColour, e2 := r.ReadUint(uint64(p.info.NUpper))
		nbrID, e3 := r.ReadUint(p.info.MaxID)
		if e1 != nil || e2 != nil || e3 != nil {
			informed = false
			continue
		}
		if nbrJoined {
			p.dominated = true
		}
		// nbrColour is offset by one; 0 encodes "no colour assigned". A
		// colourless neighbour can never join, so it cannot collide.
		if nbrColour != 0 && int(nbrColour-1) == p.myColor && nbrID > p.info.ID {
			blocked = true
		}
	}
	if round == p.myColor+2 && !p.dominated && !p.joined && informed && !blocked {
		p.joined = true
	}
	if round > p.k+1 {
		return true
	}
	var w wire.Writer
	w.WriteBool(p.joined)
	w.WriteUint(uint64(p.myColor+1), uint64(p.info.NUpper))
	w.WriteUint(p.info.ID, p.info.MaxID)
	p.info.Broadcast(&w)
	return false
}
