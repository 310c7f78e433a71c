package maxis

import (
	"testing"

	"distmwis/internal/reliable"
)

// The ranking process must satisfy the reliable transport's Checkpointer
// interface so crash recovery can snapshot it.
var _ reliable.Checkpointer = (*rankingProcess)(nil)

func TestRankingCheckpointIsolation(t *testing.T) {
	p := &rankingProcess{rank: 42, nbrRanks: []uint64{1, 2}, nbrSeen: []uint64{3, 4}}
	snap := p.Checkpoint()
	p.rank = 99
	p.nbrRanks[0] = 8
	p.Restore(snap)
	if p.rank != 42 || p.nbrRanks[0] != 1 {
		t.Errorf("restore did not rewind state: %+v", p)
	}
	p.nbrSeen[1] = 0
	p.Restore(snap)
	if p.nbrSeen[1] != 4 {
		t.Error("snapshot aliased live state")
	}
}
