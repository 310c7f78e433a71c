package congest

import "distmwis/internal/trace"

// WithTracer installs a round-level tracer (see internal/trace). The
// simulator calls it from the round loop's goroutine: BeginRun before
// round 1, OnRound after every completed round with that round's traffic
// deltas and wall-clock split (node steps, which include delivery, and the
// barrier merge), EndRun on every exit path.
//
// Tracing is strictly observational — with or without a tracer, executions
// on the same seed produce bit-identical Results — and costs nothing when
// absent: the untraced round loop performs no clock reads and no extra
// bookkeeping.
func WithTracer(t trace.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithTraceLabel attributes this run's trace records to an orchestrator
// phase label (e.g. "boost/push/goodnodes/mis"). A no-op without a tracer.
func WithTraceLabel(label string) Option { return func(c *config) { c.traceLabel = label } }

// PhaseLabeler is an optional interface a Process may implement to label
// the protocol stage each round belongs to (e.g. Luby's mark/join/retire
// cadence). The simulator samples node 0's process once per round, so the
// label must be a pure function of the round number, identical across
// nodes — never derived from per-node state.
type PhaseLabeler interface {
	TracePhase(round int) string
}

// traceCounters snapshots the running aggregates at the top of a round so
// the tracer can record per-round deltas.
type traceCounters struct {
	messages    int64
	bits        int64
	lost        int64
	corrupted   int64
	duplicated  int64
	retransmits int64
	live        int
}

func (s *simulator) snapshotCounters(live int) traceCounters {
	c := traceCounters{
		messages:   s.res.Messages,
		bits:       s.res.Bits,
		lost:       s.res.FaultLost,
		corrupted:  s.res.FaultCorrupted,
		duplicated: s.res.FaultDuplicated,
		live:       live,
	}
	if s.cfg.reliable != nil {
		// Raw cumulative value: the per-round delta subtracts two snapshots,
		// so the run-start base cancels.
		c.retransmits = s.cfg.reliable.Counters().Retransmits
	}
	return c
}
