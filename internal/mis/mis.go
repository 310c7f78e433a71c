// Package mis implements distributed maximal-independent-set protocols for
// the CONGEST model.
//
// The paper treats MIS as a black box with running time MIS(n, Δ)
// (Theorems 1 and 8): any MIS protocol can be plugged into the MaxIS
// approximation pipeline. This package provides three such boxes —
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
//
// Each protocol charges three simulator rounds per iteration (mark/compete,
// join announcement, retirement announcement), which is the standard
// CONGEST accounting for these algorithms.
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

// phase is the position within one 3-round iteration.
type phase int

const (
	phaseMark phase = iota + 1
	phaseJoin
	phaseRetire
)

func phaseOf(round int) phase { return phase((round-1)%3 + 1) }

// phaseName labels the 3-round iteration cadence for tracing.
func phaseName(round int) string {
	switch phaseOf(round) {
	case phaseMark:
		return "mark"
	case phaseJoin:
		return "join"
	default:
		return "retire"
	}
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

// sendRetire sends the retirement announcement parseRetire expects to the
// ports in alive.
func sendRetire(info *congest.NodeInfo, alive graph.Bitset, retiring, joined bool) {
	var w wire.Writer
	w.WriteBool(retiring)
	if info.Faulty {
		w.WriteBool(joined)
	}
	info.BroadcastTo(alive, &w)
}

// portSet returns a bitset with the first degree ports set. For degree at
// most 64 its storage is *word, a field of the calling process, so the
// common case allocates nothing.
func portSet(word *[1]uint64, degree int) graph.Bitset {
	b := graph.Bitset(word[:])
	if degree > 64 {
		b = graph.NewBitset(degree)
	}
	b.SetFirst(degree)
	return b
}

// lubyProcess holds one node's Luby state.
type lubyProcess struct {
	info      congest.NodeInfo
	alive     graph.Bitset // per-port: neighbour still active
	aliveN    int
	marked    bool
	joined    bool
	dominated bool
	lastRound int
	// scratch from phaseMark messages: which alive neighbours are marked and
	// their (degree, id) priority.
	loseToNeighbor bool
	// aliveWord backs alive for degree ≤ 64 (portSet).
	aliveWord [1]uint64
}

func (p *lubyProcess) Init(info congest.NodeInfo) {
	p.info = info
	p.alive = portSet(&p.aliveWord, info.Degree)
	p.aliveN = info.Degree
}

// beats reports whether (d1,id1) has priority over (d2,id2).
func beats(d1 int, id1 uint64, d2 int, id2 uint64) bool {
	if d1 != d2 {
		return d1 > d2
	}
	return id1 > id2
}

func (p *lubyProcess) Round(round int, recv []*congest.Message) bool {
	var w wire.Writer
	// A round-number gap means the node was crashed and recovered: the
	// per-iteration scratch is stale relative to the current phase. Rounds
	// are consecutive in fault-free runs, so this never fires there.
	if p.lastRound != 0 && round != p.lastRound+1 {
		p.marked = false
		p.loseToNeighbor = false
	}
	p.lastRound = round

	switch phaseOf(round) {
	case phaseMark:
		// Absorb retirement bits from the previous iteration.
		p.absorbRetirements(round, recv)
		p.marked = false
		p.loseToNeighbor = false
		switch {
		case p.dominated:
			// A neighbour joined but our own retirement announcement was
			// lost: stay out of contention until the retire phase halts us.
		case p.aliveN == 0:
			p.marked = true // uncontested: will join
		case p.info.Rand.Float64() < 1/(2*float64(p.aliveN)):
			p.marked = true
		}
		w.WriteBool(p.marked)
		w.WriteUint(uint64(p.aliveN), uint64(p.info.NUpper))
		w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.BroadcastTo(p.alive, &w)
		return false

	case phaseJoin:
		if p.marked && !p.dominated {
			// Joining is only safe on full information: a lost or garbled
			// mark message could hide a higher-priority marked neighbour.
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
				nbrDeg, e2 := r.ReadUint(uint64(p.info.NUpper))
				nbrID, e3 := r.ReadUint(p.info.MaxID)
				if e1 != nil || e2 != nil || e3 != nil {
					informed = false
					continue
				}
				if nbrMarked && beats(int(nbrDeg), nbrID, p.aliveN, p.info.ID) {
					p.loseToNeighbor = true
				}
			}
			if informed && !p.loseToNeighbor {
				p.joined = true
			}
		}
		w.WriteBool(p.joined)
		p.info.BroadcastTo(p.alive, &w)
		return false

	default: // phaseRetire
		for port, m := range recv {
			if m == nil || !p.alive.Get(port) {
				continue
			}
			nbrJoined, err := m.Reader().ReadBool()
			if err == nil && nbrJoined {
				p.dominated = true
			}
		}
		retiring := p.joined || p.dominated
		sendRetire(&p.info, p.alive, retiring, p.joined)
		return retiring
	}
}

func (p *lubyProcess) absorbRetirements(round int, recv []*congest.Message) {
	if round == 1 {
		return
	}
	for port, m := range recv {
		if m == nil || !p.alive.Get(port) {
			continue
		}
		retired, dominated := parseRetire(p.info.Faulty, m)
		if retired {
			p.alive.Unset(port)
			p.aliveN--
		}
		if dominated {
			p.dominated = true
		}
	}
}

func (p *lubyProcess) Output() bool { return p.joined }

// TracePhase implements congest.PhaseLabeler.
func (p *lubyProcess) TracePhase(round int) string { return phaseName(round) }

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
	info      congest.NodeInfo
	alive     graph.Bitset
	aliveN    int
	pExp      int // p_v = 2^-pExp, pExp >= 1
	marked    bool
	joined    bool
	dominated bool
	lastRound int
	// maxExp caps the exponent so the wire field stays bounded.
	maxExp    int
	aliveWord [1]uint64
}

func (p *ghaffariProcess) Init(info congest.NodeInfo) {
	p.info = info
	p.alive = portSet(&p.aliveWord, info.Degree)
	p.aliveN = info.Degree
	p.pExp = 1
	p.maxExp = 2 * wire.BitsFor(uint64(info.NUpper)) // p never below n^-2
}

func (p *ghaffariProcess) Round(round int, recv []*congest.Message) bool {
	var w wire.Writer
	if p.lastRound != 0 && round != p.lastRound+1 {
		p.marked = false // stale across a crash window
	}
	p.lastRound = round

	switch phaseOf(round) {
	case phaseMark:
		for port, m := range recv { // retirements from previous iteration
			if round > 1 && m != nil && p.alive.Get(port) {
				retired, dominated := parseRetire(p.info.Faulty, m)
				if retired {
					p.alive.Unset(port)
					p.aliveN--
				}
				if dominated {
					p.dominated = true
				}
			}
		}
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
		// Joining requires a parseable mark message from every live port: a
		// missing one could hide a higher-ID marked neighbour.
		if p.marked && informed && !anyMarkedBeats && !p.dominated {
			p.joined = true
		}
		// Desire-level update for the next iteration.
		if effDeg >= 2 {
			if p.pExp < p.maxExp {
				p.pExp++
			}
		} else if p.pExp > 1 {
			p.pExp--
		}
		w.WriteBool(p.joined)
		p.info.BroadcastTo(p.alive, &w)
		return false

	default: // phaseRetire
		for port, m := range recv {
			if m == nil || !p.alive.Get(port) {
				continue
			}
			nbrJoined, err := m.Reader().ReadBool()
			if err == nil && nbrJoined {
				p.dominated = true
			}
		}
		retiring := p.joined || p.dominated
		sendRetire(&p.info, p.alive, retiring, p.joined)
		return retiring
	}
}

func pow2neg(exp int) float64 {
	v := 1.0
	for i := 0; i < exp && v > 1e-300; i++ {
		v /= 2
	}
	return v
}

func (p *ghaffariProcess) Output() bool { return p.joined }

// TracePhase implements congest.PhaseLabeler.
func (p *ghaffariProcess) TracePhase(round int) string { return phaseName(round) }

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
	info      congest.NodeInfo
	alive     graph.Bitset
	aliveN    int
	rank      uint64
	rankSpace uint64
	joined    bool
	dominated bool
	wins      bool
	lastRound int
	aliveWord [1]uint64
}

func (p *rankProcess) Init(info congest.NodeInfo) {
	p.info = info
	p.alive = portSet(&p.aliveWord, info.Degree)
	p.aliveN = info.Degree
	n := uint64(info.NUpper)
	p.rankSpace = n * n // collisions broken by ID
}

func (p *rankProcess) Round(round int, recv []*congest.Message) bool {
	var w wire.Writer
	if p.lastRound != 0 && round != p.lastRound+1 {
		p.rank = 0 // stale across a crash window; 0 never wins a comparison
		p.wins = false
	}
	p.lastRound = round

	switch phaseOf(round) {
	case phaseMark:
		for port, m := range recv {
			if round > 1 && m != nil && p.alive.Get(port) {
				retired, dominated := parseRetire(p.info.Faulty, m)
				if retired {
					p.alive.Unset(port)
					p.aliveN--
				}
				if dominated {
					p.dominated = true
				}
			}
		}
		p.rank = 1 + p.info.Rand.Uint64N(p.rankSpace)
		w.WriteUint(p.rank, p.rankSpace)
		w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.BroadcastTo(p.alive, &w)
		return false

	case phaseJoin:
		p.wins = true
		for port, m := range recv {
			if !p.alive.Get(port) {
				continue
			}
			if m == nil {
				// A live neighbour's rank is unknown; winning cannot be
				// certified this iteration.
				p.wins = false
				continue
			}
			r := m.Reader()
			nbrRank, e1 := r.ReadUint(p.rankSpace)
			nbrID, e2 := r.ReadUint(p.info.MaxID)
			if e1 != nil || e2 != nil {
				p.wins = false
				continue
			}
			if nbrRank > p.rank || (nbrRank == p.rank && nbrID > p.info.ID) {
				p.wins = false
			}
		}
		if p.wins && !p.dominated {
			p.joined = true
		}
		w.WriteBool(p.joined)
		p.info.BroadcastTo(p.alive, &w)
		return false

	default: // phaseRetire
		for port, m := range recv {
			if m == nil || !p.alive.Get(port) {
				continue
			}
			nbrJoined, err := m.Reader().ReadBool()
			if err == nil && nbrJoined {
				p.dominated = true
			}
		}
		retiring := p.joined || p.dominated
		sendRetire(&p.info, p.alive, retiring, p.joined)
		return retiring
	}
}

func (p *rankProcess) Output() bool { return p.joined }

// TracePhase implements congest.PhaseLabeler.
func (p *rankProcess) TracePhase(round int) string { return phaseName(round) }
