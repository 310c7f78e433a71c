// Package trace provides round-level observability for CONGEST executions.
//
// The paper states every result as a round/message/bit complexity, but an
// end-of-run aggregate (congest.Result) cannot show *where* a protocol
// spends those resources — which phase of a pipeline dominates the bit
// budget, whether traffic is front-loaded or flat, how much wall-clock the
// engine spends computing node steps versus moving messages. A Tracer
// receives one Round record per synchronous round, tagged with the
// orchestrator's phase label (e.g. "boost/push/goodnodes/mis") and the
// protocol's own stage annotation (e.g. Luby's "mark"/"join"/"retire"), so
// those questions have measured answers.
//
// The package deliberately does not import the simulator: congest imports
// trace and drives the Tracer from the round loop's goroutine. All
// Tracer methods are therefore invoked sequentially within one run;
// implementations here still lock so results can be read concurrently.
//
// Implementations: Ring (bounded in-memory record buffer), Totals (counters
// only, for timing comparisons), Tee (fan-out). Summarize folds records
// into a Timeline of per-phase totals and a bits-per-round histogram;
// WriteJSONL/WriteCSV export raw records.
package trace

// RunInfo describes one simulator execution, delivered to BeginRun before
// round 1.
type RunInfo struct {
	// Label is the orchestrator-assigned phase label ("" when the caller
	// did not label the run). Pipelines composed of several congest runs
	// use it to attribute rounds to pipeline stages.
	Label string `json:"label,omitempty"`
	// N is the node count.
	N int `json:"n"`
	// Bandwidth is the enforced per-message bit budget (0 = LOCAL).
	Bandwidth int `json:"bandwidth"`
	// Workers is the resolved number of goroutines that stepped nodes each
	// round (1 = inline in index order).
	Workers int `json:"workers"`
	// Seed is the run's root randomness seed.
	Seed uint64 `json:"seed"`
}

// Round is one synchronous round's record. Counters are per-round deltas,
// not running totals: summing a field over a run's records reproduces the
// corresponding congest.Result aggregate exactly.
type Round struct {
	// Run is the 0-based index of the run within the tracer's lifetime
	// (a multi-phase pipeline traces several runs into one tracer).
	Run int `json:"run"`
	// Round is the 1-based round number within the run.
	Round int `json:"round"`
	// Label echoes the run's orchestrator label.
	Label string `json:"label,omitempty"`
	// Phase is the protocol-emitted stage annotation for this round
	// ("" when the protocol does not implement congest.PhaseLabeler).
	Phase string `json:"phase,omitempty"`
	// Messages and Bits count the traffic sent this round.
	Messages int64 `json:"messages"`
	Bits     int64 `json:"bits"`
	// MaxMessageBits is the largest single message sent this round.
	MaxMessageBits int `json:"maxMessageBits"`
	// Halts counts nodes that halted this round (protocol completion and
	// crash-stop faults alike).
	Halts int `json:"halts"`
	// FaultLost, FaultCorrupted and FaultDuplicated count the fault
	// layer's interventions this round (zero without an injector).
	FaultLost       int64 `json:"faultLost,omitempty"`
	FaultCorrupted  int64 `json:"faultCorrupted,omitempty"`
	FaultDuplicated int64 `json:"faultDuplicated,omitempty"`
	// Retransmits counts data frames re-sent by the reliable transport this
	// round (zero without congest.Config.Reliable). Rounds where it is positive
	// are recovery work the fault-free execution would not have performed.
	Retransmits int64 `json:"retransmits,omitempty"`
	// ComputeNanos is the wall-clock spent running node steps (the engine
	// dispatch). A step delivers its own sends into next-round inboxes, so
	// delivery is inside ComputeNanos; DeliveryNanos covers only the round
	// barrier's merge of per-worker tallies, halts and crash-stops.
	ComputeNanos  int64 `json:"computeNanos"`
	DeliveryNanos int64 `json:"deliveryNanos"`
}

// Summary closes one run, delivered to EndRun on every exit path
// (including errors, where it reflects the rounds completed so far).
type Summary struct {
	// Run is the 0-based run index, matching the records' Run field.
	Run int `json:"run"`
	// Label echoes the run's orchestrator label.
	Label string `json:"label,omitempty"`
	// Rounds, Messages and Bits are the run's final aggregates.
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	Bits     int64 `json:"bits"`
	// Truncated reports a hard stop before all nodes halted.
	Truncated bool `json:"truncated"`
}

// Tracer receives per-round records from the simulator. Within one run all
// methods are called from a single goroutine in Begin/Round*/End order; a
// tracer shared across pipeline phases sees that sequence repeated. The
// run index is assigned by the tracer itself in BeginRun.
type Tracer interface {
	// BeginRun starts a new run and returns its 0-based index; the
	// simulator stamps the index into every record it emits for the run.
	BeginRun(info RunInfo) int
	// OnRound records one completed round.
	OnRound(r Round)
	// EndRun closes the run opened by the matching BeginRun.
	EndRun(s Summary)
}

// Tee fans every tracer call out to each of its elements in order, so a
// run can be simultaneously ring-buffered and total-counted. BeginRun
// returns the first element's run index (all elements see the same call
// sequence, so indices agree for tracers that count runs).
type Tee []Tracer

// BeginRun implements Tracer.
func (t Tee) BeginRun(info RunInfo) int {
	run := 0
	for i, tr := range t {
		if i == 0 {
			run = tr.BeginRun(info)
		} else {
			tr.BeginRun(info)
		}
	}
	return run
}

// OnRound implements Tracer.
func (t Tee) OnRound(r Round) {
	for _, tr := range t {
		tr.OnRound(r)
	}
}

// EndRun implements Tracer.
func (t Tee) EndRun(s Summary) {
	for _, tr := range t {
		tr.EndRun(s)
	}
}
