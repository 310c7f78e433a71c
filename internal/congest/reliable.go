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
	// Counters reports the transport's cumulative totals in the five
	// transport fields of Counters (Retransmits, TransportAcks, Recoveries,
	// ReplayedRounds, DeadPorts), the rest zero. The simulator reads it
	// between rounds, on the round loop's goroutine; implementations must
	// make it safe against concurrent node steps (atomics).
	Counters() Counters
}
