// Package protocol is the runtime contract shared by every distributed
// algorithm in the repository and the registry that binds the stack
// together.
//
// It owns the three types that cross layer boundaries:
//
//   - Config: the execution knobs common to all algorithms (seed, model,
//     bandwidth, faults, reliable transport, checkpointing, repair,
//     tracing, worker count). Config.Sim compiles a Config into the
//     congest.Config of one protocol phase, so every cross-cutting seam —
//     fault injection, tracing, reliable delivery, checkpoint cadence — is
//     wired in one place instead of per algorithm.
//   - Params: the per-request algorithm parameters (ε, α) with
//     per-algorithm normalisation via Solver.Normalize.
//   - Result: the normalised outcome (set, weight, aggregated metrics,
//     algorithm-specific extras).
//
// The registry (registry.go) maps names to implementations in three kinds:
// MaxIS solvers (registered by internal/maxis), MIS black boxes
// (internal/mis) and colouring protocols (internal/coloring). Downstream
// consumers — maxis.Solve, the cmd/maxis flag surface, the experiment
// harness and the maxisd JSON API — all derive their algorithm vocabulary
// from the registry, so registering an algorithm once makes it available
// everywhere, with checkpointing, tracing and reliable delivery inherited
// from the shared Config plumbing.
package protocol

import (
	"fmt"
	"math/bits"

	"distmwis/internal/congest"
	"distmwis/internal/dist"
	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/reliable"
	"distmwis/internal/trace"
)

// Result is the outcome of one MaxIS approximation run.
type Result struct {
	// Set is the returned independent set, indexed by node.
	Set []bool
	// Weight is the set's total weight under the input graph's weights.
	Weight int64
	// Metrics aggregates rounds/messages/bits over all protocol phases.
	Metrics dist.Accumulator
	// Extra carries algorithm-specific observables (e.g. the sparsifier's
	// max degree, the local-ratio stack value) for the experiment harness.
	Extra map[string]float64
}

// MIS is a distributed MIS black box (the MIS(n,Δ) of the paper). It is
// structurally identical to the implementations in internal/mis; the
// interface lives here so Config can carry one without this package
// importing its own registrants.
type MIS interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Run runs the protocol on g (it is a congest.Runner): out[v] becomes
	// node v's membership in the computed MIS.
	Run(g *graph.Graph, c congest.Config, out []bool) (*congest.Result, error)
	// RoundBudget returns the declared with-high-probability round budget
	// MIS(n, Δ) for graphs with ≤ nUpper nodes and maximum degree ≤ maxDeg.
	RoundBudget(nUpper, maxDeg int) int
}

// Config carries the knobs shared by all algorithms. The zero value is
// usable: it selects the registered default MIS, seed 1 and CONGEST
// defaults.
type Config struct {
	// MIS is the black-box MIS algorithm (the MIS(n,Δ) of Theorems 1/8).
	// Defaults to the registry's default (Luby's algorithm).
	MIS MIS
	// Seed is the root randomness seed; every protocol phase derives an
	// independent stream from it.
	Seed uint64
	// BandwidthFactor is c in the CONGEST bound B = c·⌈log₂ n⌉ (default 8).
	BandwidthFactor int
	// NUpper is the polynomial upper bound on n that nodes know; Normalized
	// sets it to the top-level graph's n. Subgraph phases and sub-solves
	// keep that bound, per the padding argument of Lemma 2.
	NUpper int
	// Lambda is the sparsification oversampling constant λ of Section 4.2
	// (default 2.0; the paper's proof uses a large constant, experiments
	// show small λ already exhibits the Lemma 3/5 behaviour).
	Lambda float64
	// Local switches to the LOCAL model (no bandwidth bound).
	Local bool
	// Workers sets how many goroutines step nodes in every protocol phase
	// (≤ 0: GOMAXPROCS; see congest.Config.Workers). Every count produces
	// bit-identical executions.
	Workers int
	// MaxWeight is the weight bound W handed to every protocol phase
	// (congest.Config.MaxWeight). Experiments that sweep W set it; otherwise
	// Normalized sets it like NUpper.
	MaxWeight int64
	// maxID is the identifier bound handed to every protocol phase
	// (congest.Config.MaxID); Normalized sets it like MaxWeight. It is not
	// settable: identifiers are the graph's, not an experiment's.
	maxID uint64
	// Faults, when enabled, installs a fault.Injector on every protocol
	// phase (each phase reseeded deterministically from the phase seed) and
	// caps every phase at Faults.HardStop rounds, because faults can block
	// protocols from terminating on their own. Outputs remain independent
	// sets — that invariant survives any schedule — but weight and
	// maximality guarantees degrade with the fault rate.
	Faults fault.Schedule
	// FaultStats, if non-nil, accumulates the injectors' counters across
	// all phases of the run.
	FaultStats *fault.Stats
	// Reliable installs the ARQ transport of internal/reliable on every
	// protocol phase. Under any message-fault schedule with Loss, Dup and
	// Corrupt below 1 the logical execution is then bit-identical to the
	// fault-free run (at the cost of extra physical rounds and header
	// bits); combined with CheckpointEvery it also recovers
	// crash-recovery faults exactly.
	Reliable bool
	// CheckpointEvery, when positive with Reliable, snapshots each
	// process every that-many logical rounds so a crashed-and-recovered
	// node resynchronises by replay instead of staying frozen.
	CheckpointEvery int
	// Repair runs the self-healing monitor (reliable.Repair) on the final
	// set before the independence check: under crash-stop schedules even
	// the reliable transport cannot extract information from a dead
	// neighbour, and passive (non-reliable) fault runs can leave
	// conflicting joins. The monitor deterministically withdraws the
	// lower-weight endpoint of every conflicting edge. Repaired runs
	// report repair_conflicts/repair_withdrawn_weight in Result.Extra.
	Repair bool
	// Tracer, if non-nil, receives per-round records from every protocol
	// phase of the run (see internal/trace). Algorithms label their phases
	// at natural stage boundaries ("goodnodes/mis", "push/...", "scale"),
	// so a Timeline built from the trace attributes rounds and bits to
	// pipeline stages.
	Tracer trace.Tracer
	// TraceLabel prefixes every phase label this config emits; algorithms
	// descend from it via Config.Phase. Ignored without a Tracer.
	TraceLabel string
	// scratch is the solve's memory, handed to every phase (see
	// WithScratch); nil lets each run borrow its own.
	scratch *congest.Scratch
}

// WithScratch returns c carrying a scratch for every phase of one solve
// (congest.Scratch), and the scratch the caller releases when the solve
// ends — nil when c already carries one, which its borrower releases. The
// returned Config must stay on one goroutine.
func (c Config) WithScratch() (Config, *congest.Scratch) {
	if c.scratch != nil {
		return c, nil
	}
	c.scratch = congest.NewScratch()
	return c, c.scratch
}

// Scratch returns the solve scratch c carries, or nil.
func (c Config) Scratch() *congest.Scratch { return c.scratch }

// MISAlg resolves the configured MIS black box, falling back to the
// registry's default (Luby's algorithm, registered by internal/mis).
func (c Config) MISAlg() MIS {
	if c.MIS == nil {
		return DefaultMIS()
	}
	return c.MIS
}

// LambdaOrDefault returns the sparsification constant λ, defaulting to 2.
func (c Config) LambdaOrDefault() float64 {
	if c.Lambda <= 0 {
		return 2.0
	}
	return c.Lambda
}

// Normalized fills defaults that depend on the input graph, which must be
// the top-level instance: NUpper becomes its n, MaxWeight its max |w| and
// the identifier bound its max ID, both rounded up to 2^k − 1 — the same
// bit width, so no wire field grows and a PATCH rarely moves them. Phases
// and sub-solves keep all three, so neither an answer nor a bandwidth
// failure depends on how the graph was cut into runs.
func (c Config) Normalized(g *graph.Graph) Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NUpper < g.N() {
		c.NUpper = g.N()
	}
	if c.MaxWeight <= 0 {
		w := uint64(1)
		for v := 0; v < g.N(); v++ {
			w = max(w, uint64(max(g.Weight(v), -g.Weight(v))))
		}
		c.MaxWeight = int64(1<<bits.Len64(w) - 1)
	}
	if id := g.MaxID(); c.maxID < id {
		c.maxID = 1<<bits.Len64(id) - 1
	}
	return c
}

// Bounds renders the global bounds every node is told — n, W and the
// identifier bound — as Normalized fixed them, for keys of answers that
// depend on them.
func (c Config) Bounds() string {
	return fmt.Sprintf("n=%d|W=%d|id=%d", c.NUpper, c.MaxWeight, c.maxID)
}

// SeedSeq derives independent per-phase seeds from the root seed.
type SeedSeq struct {
	base uint64
	ctr  uint64
}

// NewSeedSeq starts a phase-seed sequence rooted at base.
func NewSeedSeq(base uint64) *SeedSeq { return &SeedSeq{base: base} }

// Next returns the next phase seed.
func (s *SeedSeq) Next() uint64 {
	s.ctr++
	return splitmix64(s.base + s.ctr*0x9e3779b97f4a7c15)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Phase returns a copy of c whose trace label descends into label;
// algorithms call it at stage boundaries so trace records attribute rounds
// to pipeline stages. Without a tracer it is the identity.
func (c Config) Phase(label string) Config {
	if c.Tracer == nil {
		return c
	}
	if c.TraceLabel != "" {
		label = c.TraceLabel + "/" + label
	}
	c.TraceLabel = label
	return c
}

// Sim builds the simulator configuration of one protocol phase. This is
// the single place where the cross-cutting seams — fault injection,
// tracing, reliable delivery, checkpoint cadence, worker count — are
// compiled into a congest.Config; algorithms never wire them by hand.
func (c Config) Sim(phaseSeed uint64) congest.Config {
	sc := congest.Config{
		Local:           c.Local,
		BandwidthFactor: c.BandwidthFactor,
		Seed:            phaseSeed,
		NUpper:          c.NUpper,
		Workers:         max(c.Workers, 0),
		MaxWeight:       c.MaxWeight,
		MaxID:           c.maxID,
		Tracer:          c.Tracer,
		TraceLabel:      c.TraceLabel,
		Scratch:         c.scratch,
	}
	if c.Faults.Enabled() {
		inj := fault.NewInjector(c.Faults.WithSeed(phaseSeed))
		if c.FaultStats != nil {
			inj.ShareStats(c.FaultStats)
		}
		sc.Hook, sc.HardStop = inj, c.Faults.HardStop(c.NUpper)
	}
	if c.Reliable {
		// Retransmission stretches a logical round over several physical
		// rounds, so the phase budget grows accordingly; the round bound
		// sizes the transport's sequence-number fields and caps runaway
		// inner executions under crash-stop.
		hs := c.Faults.HardStop(c.NUpper)
		sc.Reliable = reliable.New(reliable.Options{
			RoundBound:      16 * hs,
			CheckpointEvery: c.CheckpointEvery,
		})
		if c.Faults.Enabled() {
			sc.HardStop = 16 * hs
		}
	}
	return sc
}
