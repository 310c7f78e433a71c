package maxis

// Checkpoint/Restore implement the reliable transport's Checkpointer
// interface (internal/reliable) for the ranking process: a snapshot is a
// value copy of the struct with its per-neighbour slices deep-copied, and
// Restore copies back out of the snapshot so the same snapshot can serve
// repeated crashes. The embedded NodeInfo's Rand pointer deliberately stays
// shared — the transport snapshots and restores the underlying randomness
// stream itself.

func (p *rankingProcess) Checkpoint() any {
	s := *p
	s.nbrRanks = append([]uint64(nil), p.nbrRanks...)
	s.nbrSeen = append([]uint64(nil), p.nbrSeen...)
	return &s
}

func (p *rankingProcess) Restore(state any) {
	s := state.(*rankingProcess)
	nbrRanks := append([]uint64(nil), s.nbrRanks...)
	nbrSeen := append([]uint64(nil), s.nbrSeen...)
	*p = *s
	p.nbrRanks = nbrRanks
	p.nbrSeen = nbrSeen
}
