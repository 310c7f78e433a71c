// Package mis implements distributed maximal-independent-set protocols for
// the CONGEST model.
//
// The paper treats MIS as a black box with running time MIS(n, Δ)
// (Theorems 1 and 8): any MIS protocol can be plugged into the MaxIS
// approximation pipeline. This package provides four such boxes —
//
//   - Luby: the classic algorithm of Luby [35] / Alon–Babai–Itai [1]; each
//     active node marks itself with probability 1/(2d(v)) and joins when it
//     beats all marked neighbours by (degree, ID) priority. O(log n) rounds
//     with high probability.
//   - Ghaffari: the desire-level dynamics of Ghaffari [25]; node marking
//     probabilities p_v adapt (halve when the neighbourhood is crowded,
//     double otherwise), giving O(log Δ) + poly(log log n) local complexity.
//   - Rank: fresh uniform ranks each iteration, local maxima join. The
//     iterated version of the classical ranking algorithm (Section 5).
//   - GreedyByID: deterministic greedy in identifier order (greedyid.go).
//
// The three randomized boxes run one shared iteration (the iteration type)
// of three simulator rounds — mark/compete, join announcement, retirement
// announcement — which is the standard CONGEST accounting for these
// algorithms. They differ only in what a node sends in the mark round and
// how it decides from its neighbours' marks that it joins.
package mis

import (
	"fmt"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
	"distmwis/internal/wire"
)

// Algorithm is a distributed MIS black box (the MIS(n,Δ) of the paper): an
// alias of the protocol runtime's MIS interface. Synchronous phase
// composition (Algorithms 1 and 6 of the paper) runs each black-box
// invocation for its fixed RoundBudget, because nodes cannot detect global
// termination; the budgeted accounting mode charges it.
//
// Every box in this package self-registers into the protocol registry
// (init below), which is where Config.MIS defaults, the cmd/maxis -mis
// flag, the maxisd API's mis field and the worker-count parity suite all
// resolve names from.
type Algorithm = protocol.MIS

func init() {
	protocol.RegisterMIS(Luby{}, "Luby/ABI: mark with p=1/(2d), join on (degree, ID) priority; O(log n) w.h.p.")
	protocol.RegisterMIS(Ghaffari{}, "Ghaffari's desire-level dynamics; O(log Δ)+poly(log log n) local complexity")
	protocol.RegisterMIS(Rank{}, "iterated uniform ranking, local maxima join (Section 5)")
	protocol.RegisterMIS(GreedyByID{}, "deterministic greedy by identifier order (serving layer's degraded tier)")
	protocol.SetDefaultMIS(Luby{}.Name())
}

// ceilLog2 returns ⌈log₂ x⌉ for x ≥ 1 (0 for x ≤ 1).
func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	b := 0
	for v := x - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// Result is an MIS computation on a concrete graph.
type Result struct {
	// Set is the MIS membership vector.
	Set []bool
	// Exec carries the simulator metrics.
	Exec *congest.Result
}

// Compute runs alg on g and returns the membership vector plus metrics.
func Compute(alg Algorithm, g *graph.Graph, c congest.Config) (*Result, error) {
	set := make([]bool, g.N())
	res, err := alg.Run(g, c, set)
	if err != nil {
		return nil, fmt.Errorf("mis: %s: %w", alg.Name(), err)
	}
	return &Result{Set: set, Exec: res}, nil
}

// Verify returns an error unless set is a maximal independent set of g.
func Verify(g *graph.Graph, set []bool) error {
	if !g.IsIndependentSet(set) {
		return fmt.Errorf("mis: set is not independent")
	}
	if !g.IsMaximalIS(set) {
		return fmt.Errorf("mis: independent set is not maximal")
	}
	return nil
}

// phase is the position within one 3-round iteration.
type phase int

const (
	phaseMark phase = iota + 1
	phaseJoin
	phaseRetire
)

func phaseOf(round int) phase { return phase((round-1)%3 + 1) }

// iteration is one node's share of the mark–join–retire iteration that
// Luby, Ghaffari and Rank run: which neighbours are still live, whether the
// node joined or is dominated, and every step that does not depend on how
// nodes compete. A box embeds it and keeps only its mark payload and
// decision, its join test, and what it resets after a crash gap:
//
//	ph, gap := p.begin(round, recv) // mark rounds absorb retirements
//	mark: broadcast the box's payload on p.alive
//	join: p.join(won)               // won: the box's test on the marks
//	retire: return p.retire(recv)
type iteration struct {
	info      congest.NodeInfo
	alive     graph.Bitset // per-port: neighbour still active
	aliveN    int
	joined    bool
	dominated bool
	lastRound int
	// aliveWord backs alive for degree ≤ 64, so the common case allocates
	// nothing.
	aliveWord [1]uint64
}

// Init starts the node with every port live. It is Luby's Init; Ghaffari
// and Rank call it from theirs.
func (it *iteration) Init(info congest.NodeInfo) {
	it.info = info
	it.alive = graph.Bitset(it.aliveWord[:])
	if info.Degree > 64 {
		it.alive = graph.NewBitset(info.Degree)
	}
	it.alive.SetFirst(info.Degree)
	it.aliveN = info.Degree
}

// begin opens a round and returns its phase. A mark round first absorbs
// the retirements announced in the previous iteration's retire round. gap
// reports a round-number gap: the node was crashed and has recovered, so
// the box's per-iteration scratch is stale relative to the current phase.
// Rounds are consecutive in fault-free runs, so gap is never set there.
func (it *iteration) begin(round int, recv []*congest.Message) (ph phase, gap bool) {
	gap = it.lastRound != 0 && round != it.lastRound+1
	it.lastRound = round
	ph = phaseOf(round)
	if ph != phaseMark || round == 1 {
		return ph, gap
	}
	for port, m := range recv {
		if m == nil || !it.alive.Get(port) {
			continue
		}
		retired, dominated := parseRetire(it.info.Faulty, m)
		if retired {
			it.alive.Unset(port)
			it.aliveN--
		}
		if dominated {
			it.dominated = true
		}
	}
	return ph, gap
}

// join makes the node a member if it won this iteration's competition and
// knows of no member neighbour, then announces its membership on every
// live port.
func (it *iteration) join(won bool) {
	if won && !it.dominated {
		it.joined = true
	}
	var w wire.Writer
	w.WriteBool(it.joined)
	it.info.BroadcastTo(it.alive, &w)
}

// retire runs the iteration's last round: a live neighbour's join
// announcement dominates the node, and a member or dominated node announces
// its retirement in the form parseRetire expects and halts.
func (it *iteration) retire(recv []*congest.Message) bool {
	for port, m := range recv {
		if m == nil || !it.alive.Get(port) {
			continue
		}
		nbrJoined, err := m.Reader().ReadBool()
		if err == nil && nbrJoined {
			it.dominated = true
		}
	}
	retiring := it.joined || it.dominated
	var w wire.Writer
	w.WriteBool(retiring)
	if it.info.Faulty {
		w.WriteBool(it.joined)
	}
	it.info.BroadcastTo(it.alive, &w)
	return retiring
}

// parseRetire interprets a mark-slot message as a retirement announcement.
// Fault-free it is a single bit. Under faults (NodeInfo.Faulty) it carries
// the sender's joined flag too, so a node that lost the join announcement
// still learns it is dominated before its ports all go quiet — otherwise a
// node whose last neighbour retired after joining would "win by default"
// next to an MIS member. A short payload in fault mode is a duplicated
// one-bit join announcement whose bit was the joined flag itself, so
// retirement then implies domination.
func parseRetire(faulty bool, m *congest.Message) (retired, dominated bool) {
	r := m.Reader()
	retiring, err := r.ReadBool()
	if err != nil || !retiring {
		return false, false
	}
	if !faulty {
		return true, false
	}
	joined, err := r.ReadBool()
	return true, joined || err != nil
}

// Output reports whether the node joined the MIS.
func (it *iteration) Output() bool { return it.joined }

// TracePhase implements congest.PhaseLabeler.
func (it *iteration) TracePhase(round int) string {
	switch phaseOf(round) {
	case phaseMark:
		return "mark"
	case phaseJoin:
		return "join"
	default:
		return "retire"
	}
}

// ownAlive gives the iteration its own copy of alive, so that a checkpoint
// and the live process never share port-set storage.
func (it *iteration) ownAlive() { it.alive = append(graph.Bitset(nil), it.alive...) }

// Luby is Luby's randomized MIS algorithm.
type Luby struct{}

// Name implements Algorithm.
func (Luby) Name() string { return "luby" }

// Run implements Algorithm.
func (Luby) Run(g *graph.Graph, c congest.Config, out []bool) (*congest.Result, error) {
	return congest.Bind[lubyProcess](nil)(g, c, out)
}

// RoundBudget implements Algorithm: Luby terminates in O(log n) iterations
// with high probability independent of Δ; three simulator rounds each.
func (Luby) RoundBudget(nUpper, _ int) int {
	return 3 * (4*ceilLog2(nUpper) + 1)
}

var _ Algorithm = Luby{}

// lubyProcess holds one node's Luby state.
type lubyProcess struct {
	iteration
	marked bool
}

// beats reports whether (d1,id1) has priority over (d2,id2).
func beats(d1 int, id1 uint64, d2 int, id2 uint64) bool {
	if d1 != d2 {
		return d1 > d2
	}
	return id1 > id2
}

func (p *lubyProcess) Round(round int, recv []*congest.Message) bool {
	ph, gap := p.begin(round, recv)
	if gap {
		p.marked = false
	}
	switch ph {
	case phaseMark:
		p.marked = false
		switch {
		case p.dominated:
			// A neighbour joined but our own retirement announcement was
			// lost: stay out of contention until the retire phase halts us.
		case p.aliveN == 0:
			p.marked = true // uncontested: will join
		case p.info.Rand.Float64() < 1/(2*float64(p.aliveN)):
			p.marked = true
		}
		var w wire.Writer
		w.WriteBool(p.marked)
		w.WriteUint(uint64(p.aliveN), uint64(p.info.NUpper))
		w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.BroadcastTo(p.alive, &w)
		return false

	case phaseJoin:
		// Joining is only safe on full information: a lost or garbled mark
		// message could hide a higher-priority marked neighbour.
		won := p.marked && !p.dominated
		for port, m := range recv {
			if !won {
				break
			}
			if !p.alive.Get(port) {
				continue
			}
			if m == nil {
				won = false
				continue
			}
			r := m.Reader()
			nbrMarked, e1 := r.ReadBool()
			nbrDeg, e2 := r.ReadUint(uint64(p.info.NUpper))
			nbrID, e3 := r.ReadUint(p.info.MaxID)
			if e1 != nil || e2 != nil || e3 != nil ||
				nbrMarked && beats(int(nbrDeg), nbrID, p.aliveN, p.info.ID) {
				won = false
			}
		}
		p.join(won)
		return false
	}
	return p.retire(recv)
}

// Ghaffari is the desire-level MIS algorithm of Ghaffari [25].
type Ghaffari struct{}

// Name implements Algorithm.
func (Ghaffari) Name() string { return "ghaffari" }

// Run implements Algorithm.
func (Ghaffari) Run(g *graph.Graph, c congest.Config, out []bool) (*congest.Result, error) {
	return congest.Bind[ghaffariProcess](nil)(g, c, out)
}

// RoundBudget implements Algorithm: O(log Δ) + poly(log log n) iterations
// (the local complexity of [25] combined with the CONGEST shattering
// machinery of [26, 41]); three simulator rounds each. The poly(log log n)
// term is budgeted as (⌈log₂ log₂ n⌉ + 1)², a quadratic stand-in for the
// shattering phase.
func (Ghaffari) RoundBudget(nUpper, maxDeg int) int {
	loglog := ceilLog2(ceilLog2(nUpper)+1) + 1
	return 3 * (4*ceilLog2(maxDeg+2) + loglog*loglog)
}

var _ Algorithm = Ghaffari{}

// ghaffariProcess holds one node's desire-level state. Probabilities are
// powers of two tracked as negative exponents, so messages stay O(log log n)
// bits for the probability field.
type ghaffariProcess struct {
	iteration
	pExp   int // p_v = 2^-pExp, pExp >= 1
	marked bool
	// maxExp caps the exponent so the wire field stays bounded.
	maxExp int
}

func (p *ghaffariProcess) Init(info congest.NodeInfo) {
	p.iteration.Init(info)
	p.pExp = 1
	p.maxExp = 2 * wire.BitsFor(uint64(info.NUpper)) // p never below n^-2
}

func (p *ghaffariProcess) Round(round int, recv []*congest.Message) bool {
	ph, gap := p.begin(round, recv)
	if gap {
		p.marked = false
	}
	switch ph {
	case phaseMark:
		p.marked = false
		if p.dominated {
			// Known joined neighbour; never re-enter contention.
		} else if p.aliveN == 0 {
			p.marked = true
		} else {
			// Draw with probability 2^-pExp via pExp fair bits.
			p.marked = true
			for i := 0; i < p.pExp; i++ {
				if p.info.Rand.Uint64()&1 == 1 {
					p.marked = false
					break
				}
			}
		}
		var w wire.Writer
		w.WriteBool(p.marked)
		w.WriteUint(uint64(p.pExp), uint64(p.maxExp))
		w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.BroadcastTo(p.alive, &w)
		return false

	case phaseJoin:
		var effDeg float64
		anyMarkedBeats := false
		informed := true
		for port, m := range recv {
			if !p.alive.Get(port) {
				continue
			}
			if m == nil {
				informed = false
				continue
			}
			r := m.Reader()
			nbrMarked, e1 := r.ReadBool()
			nbrExp, e2 := r.ReadUint(uint64(p.maxExp))
			nbrID, e3 := r.ReadUint(p.info.MaxID)
			if e1 != nil || e2 != nil || e3 != nil {
				informed = false
				continue
			}
			effDeg += pow2neg(int(nbrExp))
			if nbrMarked && nbrID > p.info.ID {
				anyMarkedBeats = true
			}
		}
		// Desire-level update for the next iteration.
		if effDeg >= 2 {
			if p.pExp < p.maxExp {
				p.pExp++
			}
		} else if p.pExp > 1 {
			p.pExp--
		}
		// Joining requires a parseable mark message from every live port: a
		// missing one could hide a higher-ID marked neighbour.
		p.join(p.marked && informed && !anyMarkedBeats)
		return false
	}
	return p.retire(recv)
}

func pow2neg(exp int) float64 {
	v := 1.0
	for i := 0; i < exp && v > 1e-300; i++ {
		v /= 2
	}
	return v
}

// Rank is the iterated ranking MIS: every iteration each active node draws
// a fresh uniform rank; strict local maxima join, dominated nodes retire.
type Rank struct{}

// Name implements Algorithm.
func (Rank) Name() string { return "rank" }

// Run implements Algorithm.
func (Rank) Run(g *graph.Graph, c congest.Config, out []bool) (*congest.Result, error) {
	return congest.Bind[rankProcess](nil)(g, c, out)
}

// RoundBudget implements Algorithm: like Luby, O(log n) iterations w.h.p.
func (Rank) RoundBudget(nUpper, _ int) int {
	return 3 * (4*ceilLog2(nUpper) + 1)
}

var _ Algorithm = Rank{}

type rankProcess struct {
	iteration
	rank      uint64
	rankSpace uint64
}

func (p *rankProcess) Init(info congest.NodeInfo) {
	p.iteration.Init(info)
	n := uint64(info.NUpper)
	p.rankSpace = n * n // collisions broken by ID
}

func (p *rankProcess) Round(round int, recv []*congest.Message) bool {
	ph, gap := p.begin(round, recv)
	if gap {
		p.rank = 0 // stale across a crash window; 0 never wins a comparison
	}
	switch ph {
	case phaseMark:
		p.rank = 1 + p.info.Rand.Uint64N(p.rankSpace)
		var w wire.Writer
		w.WriteUint(p.rank, p.rankSpace)
		w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.BroadcastTo(p.alive, &w)
		return false

	case phaseJoin:
		// A live neighbour whose rank is unknown or higher stops the node
		// from winning this iteration.
		wins := true
		for port, m := range recv {
			if !wins {
				break
			}
			if !p.alive.Get(port) {
				continue
			}
			if m == nil {
				wins = false
				continue
			}
			r := m.Reader()
			nbrRank, e1 := r.ReadUint(p.rankSpace)
			nbrID, e2 := r.ReadUint(p.info.MaxID)
			if e1 != nil || e2 != nil || nbrRank > p.rank || (nbrRank == p.rank && nbrID > p.info.ID) {
				wins = false
			}
		}
		p.join(wins)
		return false
	}
	return p.retire(recv)
}
