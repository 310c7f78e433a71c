package congest

// PhaseLabeler is an optional interface a Process may implement to label
// the protocol stage each round belongs to (e.g. Luby's mark/join/retire
// cadence). The simulator samples node 0's process once per round, so the
// label must be a pure function of the round number, identical across
// nodes — never derived from per-node state.
type PhaseLabeler interface {
	TracePhase(round int) string
}
