package reliable

import "math/rand/v2"

// Checkpointer is implemented by processes that support checkpoint/restore
// crash recovery (the mis, coloring and maxis pipelines implement it). When
// Options.CheckpointEvery is k > 0, the transport snapshots the process
// after every k-th logical round — together with its randomness stream —
// and treats a crash-recovery fault as a full amnesia crash: the live state
// is wiped by Restore and the logical rounds since the snapshot are
// re-executed from the transport's input log, reproducing the pre-crash
// state exactly (node steps are deterministic functions of their inputs and
// randomness). Neighbour retransmissions then fill whatever the node missed
// while it was down, so it rejoins the protocol exactly where it left off
// rather than with stale or frozen state.
//
// The transport's own state — sequence windows, the input log, the
// snapshot — plays the role of stable storage (a write-ahead log in
// database terms): it survives the crash by construction, only the
// process's volatile state is lost. Processes that do not implement the
// interface simply keep the fault layer's frozen-state semantics from PR 1.
type Checkpointer interface {
	// Checkpoint returns a self-contained copy of the process state. The
	// transport may hold it across many rounds and restore from it more
	// than once, so it must not alias live mutable state.
	Checkpoint() any
	// Restore replaces the process state with a copy of a snapshot
	// previously returned by Checkpoint on the same process. It must not
	// keep references into the snapshot: the transport may restore from it
	// again after a second crash.
	Restore(state any)
}

// takeSnapshot records the inner state, its randomness stream and the
// logical round, and truncates the input log.
func (p *proc) takeSnapshot() {
	p.snap = p.cp.Checkpoint()
	b, err := p.pcg.MarshalBinary()
	if err != nil {
		// rand.PCG's MarshalBinary cannot fail; guard against a future
		// stdlib change rather than silently checkpointing garbage.
		panic("reliable: snapshotting randomness stream: " + err.Error())
	}
	p.snapPCG = b
	p.snapRound = p.logical
	p.log = p.log[:0]
}

// recoverFromCheckpoint simulates the amnesia crash and recovers from it:
// restore the snapshot (state + randomness), then deterministically replay
// the logged inputs of every logical round executed since.
func (p *proc) recoverFromCheckpoint() {
	p.cp.Restore(p.snap)
	var pcg rand.PCG
	if err := pcg.UnmarshalBinary(p.snapPCG); err != nil {
		panic("reliable: restoring randomness stream: " + err.Error())
	}
	*p.pcg = pcg
	round := p.snapRound
	for _, recv := range p.log {
		round++
		p.inner.Round(round, recv)
		clear(p.innerOut) // the replayed sends were delivered the first time
	}
	p.t.recoveries.Add(1)
	p.t.replayedRounds.Add(int64(len(p.log)))
}
