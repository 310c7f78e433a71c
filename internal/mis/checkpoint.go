package mis

import "distmwis/internal/graph"

// Checkpoint/Restore implement the reliable transport's Checkpointer
// interface (internal/reliable) for every MIS process: a snapshot is a
// value copy of the process struct with its slices deep-copied, and Restore
// copies back out of the snapshot so the same snapshot can serve repeated
// crashes. The embedded NodeInfo is copied by value too; its Rand and its
// sends stay shared — the transport snapshots and restores the underlying
// randomness stream itself (it substitutes a serializable PCG when
// checkpointing is on), and the sends go to the outbox the transport gave
// the node for the whole run. The randomized boxes' only slice is their
// iteration's alive set (ownAlive).

func (p *lubyProcess) Checkpoint() any {
	s := *p
	s.ownAlive()
	return &s
}

func (p *lubyProcess) Restore(state any) {
	*p = *state.(*lubyProcess)
	p.ownAlive()
}

func (p *ghaffariProcess) Checkpoint() any {
	s := *p
	s.ownAlive()
	return &s
}

func (p *ghaffariProcess) Restore(state any) {
	*p = *state.(*ghaffariProcess)
	p.ownAlive()
}

func (p *rankProcess) Checkpoint() any {
	s := *p
	s.ownAlive()
	return &s
}

func (p *rankProcess) Restore(state any) {
	*p = *state.(*rankProcess)
	p.ownAlive()
}

func (p *greedyIDProcess) Checkpoint() any {
	s := *p
	s.nbrID = append([]uint64(nil), p.nbrID...)
	s.nbrKnown = append(graph.Bitset(nil), p.nbrKnown...)
	s.nbrActive = append(graph.Bitset(nil), p.nbrActive...)
	return &s
}

func (p *greedyIDProcess) Restore(state any) {
	s := state.(*greedyIDProcess)
	nbrID := append([]uint64(nil), s.nbrID...)
	nbrKnown := append(graph.Bitset(nil), s.nbrKnown...)
	nbrActive := append(graph.Bitset(nil), s.nbrActive...)
	*p = *s
	p.nbrID = nbrID
	p.nbrKnown = nbrKnown
	p.nbrActive = nbrActive
}
