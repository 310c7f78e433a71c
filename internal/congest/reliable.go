package congest

// Reliability is a transport layer slotted between the simulator and the
// protocol processes (see internal/reliable for the implementation). The
// simulator wraps every process with Wrap before Init; the wrapper owns the
// physical rounds and feeds the inner process reconstructed logical rounds.
//
// The interface lives here rather than in the transport package so that
// congest does not import its own client (mirroring how trace.Tracer is
// injected): the transport imports congest for Process and Message, and
// congest sees it only through this interface.
type Reliability interface {
	// Wrap layers the transport around one node's process. Called once per
	// node, before Init, from the run setup goroutine.
	Wrap(p Process) Process
	// HeaderBits is the exact per-frame framing overhead in bits. The
	// simulator grants it as headroom above the CONGEST bound B: physical
	// frames may carry up to B + HeaderBits() bits, while inner processes
	// are still told Bandwidth = B. Header bits are counted in all traffic
	// totals, so the overhead is measurable, not hidden.
	HeaderBits() int
	// Counters reports the transport's running totals. The simulator reads
	// it between rounds, on the round loop's goroutine; implementations
	// must make it safe against concurrent node steps (atomics).
	Counters() ReliabilityCounters
}

// ReliabilityCounters are the transport's cumulative event counts.
type ReliabilityCounters struct {
	// Retransmits counts data frames sent beyond their first transmission.
	Retransmits int64
	// AckFrames counts pure control frames (no data payload): standalone
	// cumulative ACKs and keep-alive pokes.
	AckFrames int64
	// Recoveries counts crash recoveries completed by checkpoint restore.
	Recoveries int64
	// ReplayedRounds counts logical rounds re-executed from the receive log
	// during recoveries.
	ReplayedRounds int64
	// DeadPorts counts ports whose failure detector declared the far end
	// dead (crash-stop neighbours, or false positives under extreme loss).
	DeadPorts int64
}

// WithReliable installs a reliable-delivery transport. Every process is
// wrapped via r.Wrap, the physical bandwidth check is widened by
// r.HeaderBits(), and the transport's counters are published in Result and
// (per-round deltas) in trace records. Passing nil leaves the run exactly
// as it would be without the option — the zero-cost-when-off guarantee: no
// wrapping, no widened bound, no extra bookkeeping in the round loop.
func WithReliable(r Reliability) Option { return func(c *config) { c.reliable = r } }
