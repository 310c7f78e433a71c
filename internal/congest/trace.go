package congest

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
	if s.cfg.Reliable != nil {
		// Raw cumulative value: the per-round delta subtracts two snapshots,
		// so the run-start base cancels.
		c.retransmits = s.cfg.Reliable.Counters().Retransmits
	}
	return c
}
