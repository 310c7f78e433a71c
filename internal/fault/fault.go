// Package fault implements a deterministic, seeded fault adversary for the
// congest simulator, plus the post-run safety validation that quantifies
// how gracefully the paper's MaxIS protocols degrade under it.
//
// The paper (and the follow-ups in PAPERS.md) assume a perfectly
// synchronous, failure-free network. This package relaxes that: an
// adversary Schedule drops, duplicates, and bit-corrupts messages per edge
// per round, and crashes nodes (permanently or transiently) at chosen
// rounds. Every decision derives from an explicit PCG seed and the
// (round, sender, receiver) coordinates alone — no hidden state — so a run
// is exactly replayable from its Schedule and independent of the
// simulator's worker count.
//
// The division of guarantees under faults is:
//
//   - safety (the output is an independent set) must hold unconditionally —
//     the hardened protocols only ever join on full, checksum-clean
//     information from every live neighbour;
//   - liveness/quality (weight of the set, round count) degrade with the
//     fault rate; SafetyReport quantifies the degradation against the
//     fault-free run on the same seed.
package fault

import (
	"fmt"
	"math/rand/v2"

	"distmwis/internal/congest"
	"distmwis/internal/wire"
)

// Crash schedules one node fault. The node freezes from round At onwards:
// it executes no rounds and receives no messages. With Back == 0 the crash
// is permanent (crash-stop) and the simulator halts the node; otherwise
// the node resumes at round Back (crash-recovery) with its pre-crash state
// intact — everything sent to it while down is lost.
type Crash struct {
	Node int
	At   int
	Back int
}

// Schedule describes the adversary. The zero value is the empty (fault-free)
// schedule; Enabled reports whether it perturbs anything at all.
type Schedule struct {
	// Seed drives every probabilistic decision. Two runs with the same
	// Schedule, graph, and protocol seed are identical.
	Seed uint64

	// Loss, Dup and Corrupt are independent per-message probabilities in
	// [0,1]: dropping the message, additionally delivering a duplicate of
	// it one round later, and flipping a burst of up to wire.ChecksumBits
	// consecutive payload bits (always caught by the wire checksum, so a
	// corrupted message is effectively a detectable loss). A message can be
	// both lost and duplicated — the duplicate then acts as a one-round
	// delayed delivery.
	Loss    float64
	Dup     float64
	Corrupt float64

	// Crashes are explicit node faults, applied after CrashFrac.
	Crashes []Crash

	// CrashFrac crashes a uniformly drawn fraction of all nodes (chosen by
	// Seed) at round CrashAt (default 1). CrashBack, if positive, turns
	// those crashes into crash-recovery faults resuming at that round.
	CrashFrac float64
	CrashAt   int
	CrashBack int

	// MaxRounds overrides the per-phase round budget HardStop suggests for
	// running protocols under this schedule (0 = derive from NUpper).
	MaxRounds int
}

// Spec is the flag-level fault vocabulary shared by the cmd/maxis -fault-*
// flags and the maxisd "fault" request field; Schedule expands it the same
// way for both, so a CLI run and a served solve see the same adversary.
type Spec struct {
	Loss    float64 `json:"loss,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Corrupt float64 `json:"corrupt,omitempty"`
	// Crash is the fraction of nodes crash-stopped at round 3 of each
	// phase; Back, if positive, is the round they recover at.
	Crash float64 `json:"crash,omitempty"`
	Back  int     `json:"back,omitempty"`
	// Seed is the adversary seed (0 = derive from the run's root seed).
	Seed uint64 `json:"seed,omitempty"`
}

// Schedule expands s for a run whose root seed is rootSeed. A zero Seed
// becomes rootSeed+77, an offset that keeps the adversary's stream apart
// from the protocol's own.
func (s Spec) Schedule(rootSeed uint64) Schedule {
	seed := s.Seed
	if seed == 0 {
		seed = rootSeed + 77
	}
	return Schedule{
		Seed:      seed,
		Loss:      s.Loss,
		Dup:       s.Dup,
		Corrupt:   s.Corrupt,
		CrashFrac: s.Crash,
		CrashAt:   3,
		CrashBack: s.Back,
	}
}

// Enabled reports whether the schedule perturbs the execution at all. A
// schedule with only MaxRounds set is a pure-truncation adversary: no
// message faults, but phases are cut off at the budget.
func (s Schedule) Enabled() bool {
	return s.Loss > 0 || s.Dup > 0 || s.Corrupt > 0 || s.CrashFrac > 0 ||
		len(s.Crashes) > 0 || s.MaxRounds > 0
}

// Validate rejects out-of-range probabilities and nonsensical crash rounds.
func (s Schedule) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("fault: %s probability %v outside [0,1]", name, p)
		}
		return nil
	}
	if err := check("loss", s.Loss); err != nil {
		return err
	}
	if err := check("dup", s.Dup); err != nil {
		return err
	}
	if err := check("corrupt", s.Corrupt); err != nil {
		return err
	}
	if err := check("crash-fraction", s.CrashFrac); err != nil {
		return err
	}
	seen := make(map[int]bool, len(s.Crashes))
	for _, c := range s.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("fault: crash names negative node %d", c.Node)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash of node %d at negative round %d", c.Node, c.At)
		}
		if c.Back != 0 && c.Back <= c.At {
			return fmt.Errorf("fault: crash of node %d recovers at round %d, not after its crash round %d", c.Node, c.Back, c.At)
		}
		if seen[c.Node] {
			return fmt.Errorf("fault: node %d has more than one crash entry", c.Node)
		}
		seen[c.Node] = true
	}
	if s.CrashAt < 0 {
		return fmt.Errorf("fault: crash round %d is negative", s.CrashAt)
	}
	if s.CrashBack != 0 && s.CrashBack <= s.CrashAt {
		return fmt.Errorf("fault: crash recovery round %d not after crash round %d", s.CrashBack, s.CrashAt)
	}
	return nil
}

// ValidateFor runs Validate and additionally rejects crash entries naming
// nodes outside [0, n). Callers that know the graph size should prefer it:
// an out-of-range crash entry silently never fires, which almost always
// means a typo in the schedule rather than intent.
func (s Schedule) ValidateFor(n int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, c := range s.Crashes {
		if c.Node >= n {
			return fmt.Errorf("fault: crash names node %d, but the graph has only %d nodes", c.Node, n)
		}
	}
	return nil
}

// HardStop returns the round budget a single protocol phase should be
// capped at when running under this schedule. Faults can block termination
// (a node waiting forever on a lost message), so phases must be truncated;
// the default budget is a generous multiple of the O(log n) bounds all
// protocols in this repository target.
func (s Schedule) HardStop(nUpper int) int {
	if s.MaxRounds > 0 {
		return s.MaxRounds
	}
	if nUpper < 2 {
		nUpper = 2
	}
	return 64 * (wire.BitsFor(uint64(nUpper)) + 1)
}

// WithSeed returns a copy of the schedule reseeded by mixing in extra —
// used to give each phase of a multi-phase algorithm its own randomness
// while keeping the whole run a pure function of the original seed.
func (s Schedule) WithSeed(extra uint64) Schedule {
	out := s
	out.Seed = splitmix64(s.Seed ^ splitmix64(extra))
	return out
}

// Stats counts the injector's interventions, cumulatively across every run
// it is installed in.
type Stats struct {
	// Examined counts messages presented to the injector.
	Examined int64
	// Lost counts messages the injector dropped.
	Lost int64
	// Duplicated counts duplicate deliveries the injector requested.
	Duplicated int64
	// Corrupted counts messages the injector bit-flipped.
	Corrupted int64
}

func (st Stats) add(o Stats) Stats {
	st.Examined += o.Examined
	st.Lost += o.Lost
	st.Duplicated += o.Duplicated
	st.Corrupted += o.Corrupted
	return st
}

// Injector realises a Schedule as a congest.DeliveryHook. Each per-message
// decision is a pure function of (Seed, round, sender, receiver), so the
// injection is stateless, independent of the worker count, and replayable. The zero
// value is unusable; use NewInjector.
type Injector struct {
	sched Schedule
	stats *Stats
	// down[v] is v's crash window ({0,0} = never crashes). Written in
	// Begin, read-only afterwards, so State is safe for concurrent use
	// from the simulator's workers.
	down []Crash
}

// NewInjector builds an injector for the schedule. The schedule should be
// validated first; probabilities are used as given.
func NewInjector(s Schedule) *Injector {
	return &Injector{sched: s, stats: &Stats{}}
}

// ShareStats makes the injector accumulate into st instead of its own
// counters, letting one Stats aggregate across the injectors of a
// multi-phase algorithm. Returns the injector for chaining.
func (inj *Injector) ShareStats(st *Stats) *Injector {
	inj.stats = st
	return inj
}

// Stats returns the counters accumulated so far.
func (inj *Injector) Stats() Stats { return *inj.stats }

// Schedule returns the schedule the injector was built from.
func (inj *Injector) Schedule() Schedule { return inj.sched }

// Begin materialises the crash schedule for an n-node run.
func (inj *Injector) Begin(n int) {
	inj.down = make([]Crash, n)
	if inj.sched.CrashFrac > 0 && n > 0 {
		k := int(inj.sched.CrashFrac * float64(n))
		if k > n {
			k = n
		}
		at := inj.sched.CrashAt
		if at < 1 {
			at = 1
		}
		rng := rand.New(rand.NewPCG(inj.sched.Seed, 0x9e3779b97f4a7c15))
		for _, v := range rng.Perm(n)[:k] {
			inj.down[v] = Crash{Node: v, At: at, Back: inj.sched.CrashBack}
		}
	}
	for _, c := range inj.sched.Crashes {
		if c.Node < 0 || c.Node >= n {
			continue
		}
		at := c.At
		if at < 1 {
			at = 1
		}
		inj.down[c.Node] = Crash{Node: c.Node, At: at, Back: c.Back}
	}
}

// State implements congest.DeliveryHook.
func (inj *Injector) State(round, v int) congest.NodeState {
	if v >= len(inj.down) {
		return congest.NodeUp
	}
	w := inj.down[v]
	switch {
	case w.At == 0 || round < w.At:
		return congest.NodeUp
	case w.Back == 0:
		return congest.NodeStopped
	case round < w.Back:
		return congest.NodeDown
	default:
		return congest.NodeUp
	}
}

// Deliver implements congest.DeliveryHook. The random draws for one
// message come from a PCG stream keyed by (round, from, to), consumed in a
// fixed order (dup, loss, corrupt), so every decision is reproducible in
// isolation.
func (inj *Injector) Deliver(round, from, to int, m *congest.Message) (*congest.Message, bool) {
	inj.stats.Examined++
	s := inj.sched
	if s.Loss == 0 && s.Dup == 0 && s.Corrupt == 0 {
		return m, false
	}
	rng := rand.New(rand.NewPCG(s.Seed, edgeKey(round, from, to)))
	dup := s.Dup > 0 && rng.Float64() < s.Dup
	if dup {
		inj.stats.Duplicated++
	}
	if s.Loss > 0 && rng.Float64() < s.Loss {
		inj.stats.Lost++
		return nil, dup
	}
	if s.Corrupt > 0 && rng.Float64() < s.Corrupt && m.Bits() > 0 {
		inj.stats.Corrupted++
		return corruptBurst(rng, m), dup
	}
	return m, dup
}

// corruptBurst flips a burst of 1..wire.ChecksumBits consecutive payload
// bits — exactly the error class a CRC-8 detects with certainty, so the
// receiver always recognises the damage and treats the message as lost
// rather than acting on a flipped payload.
func corruptBurst(rng *rand.Rand, m *congest.Message) *congest.Message {
	nbits := m.Bits()
	// AppendData + NewMessageOwned copy the payload exactly once: the
	// appended buffer is private to this call, mutated in place, and then
	// handed over. (Data + NewRawMessage would copy twice per corruption.)
	data := m.AppendData(nil)
	burst := 1 + rng.IntN(wire.ChecksumBits)
	if burst > nbits {
		burst = nbits
	}
	start := rng.IntN(nbits - burst + 1)
	for i := start; i < start+burst; i++ {
		data[i>>3] ^= 1 << uint(i&7)
	}
	return congest.NewMessageOwned(data, nbits)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// edgeKey mixes the delivery coordinates into a PCG stream key.
func edgeKey(round, from, to int) uint64 {
	k := splitmix64(uint64(round))
	k = splitmix64(k ^ uint64(from))
	return splitmix64(k ^ uint64(to))
}

var _ congest.DeliveryHook = (*Injector)(nil)
