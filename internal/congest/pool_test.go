package congest

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distmwis/internal/graph/gen"
	"distmwis/internal/wire"
)

// runPoolRound drives one round of the executor over [0, n) with fn as the
// node step and joins its workers.
func runPoolRound(n, workers int, fn func(v int)) {
	e := newPoolEngine(n, workers, func(_ int, nodes []int32, _ int) {
		for _, v := range nodes {
			fn(int(v))
		}
	})
	defer e.shutdown()
	nodes := make([]int32, n)
	for v := range nodes {
		nodes[v] = int32(v)
	}
	e.runRound(1, nodes)
}

// TestParallelForCoversRange checks that the executor's parallel for over
// node indices visits every index exactly once, inline below
// minParallelNodes and in guided chunks above it.
func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 64, 129, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 40} {
			visits := make([]int32, n)
			runPoolRound(n, workers, func(v int) {
				atomic.AddInt32(&visits[v], 1)
			})
			for i, c := range visits {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestParallelForSkewRebalances is the regression test for static
// contiguous chunking: on a degree-skewed workload where all the cost sits
// in the lowest indices (power-law graphs cluster hubs there), a static
// split pins the entire hot range to worker 0 while the rest go idle. The
// test encodes that as a deadline: index 0 blocks until some other worker
// has entered the hot region. Guided chunking passes because the hot
// region spans several chunks, so a second worker claims one while the
// first is busy; static contiguous chunking times out, because the whole
// hot region belongs to the one blocked worker.
func TestParallelForSkewRebalances(t *testing.T) {
	const n, workers = 4096, 4
	hot := n / workers // the static chunk: [0, hot) all on worker 0
	chunk := poolChunk(n, workers)
	if chunk >= hot {
		t.Fatalf("guided chunk %d does not subdivide the hot region %d; test vacuous", chunk, hot)
	}
	var once sync.Once
	otherWorkerInHot := make(chan struct{})
	var timedOut atomic.Bool
	runPoolRound(n, workers, func(v int) {
		switch {
		case v == 0:
			// Simulates the expensive hub: holds its worker until the hot
			// region is shared. A worker that owns all of [0, hot) would
			// never be joined and the deadline fires.
			select {
			case <-otherWorkerInHot:
			case <-time.After(10 * time.Second):
				timedOut.Store(true)
			}
		case v >= chunk && v < hot:
			// Any index past the first chunk but inside the hot region can
			// only run this early on a different worker.
			once.Do(func() { close(otherWorkerInHot) })
		}
	})
	if timedOut.Load() {
		t.Fatal("hot region was never rebalanced onto a second worker (static-chunking behaviour)")
	}
}

// poolSeqProcess broadcasts round-stamped payloads from one reused writer
// and records every (round, value) pair heard per port. It exists to pin
// slot integrity: if an inbox slot were refilled while its previous
// message was still readable, the recorded sequences would show a value
// from the wrong round.
type poolSeqProcess struct {
	info   NodeInfo
	rounds int
	w      wire.Writer
	heard  []uint64
}

func (p *poolSeqProcess) Init(info NodeInfo) { p.info = info }

func (p *poolSeqProcess) Round(round int, recv []*Message) bool {
	for _, m := range recv {
		if m == nil {
			continue
		}
		r := m.Reader()
		rd, e1 := r.ReadUint(uint64(p.rounds))
		id, e2 := r.ReadUint(p.info.MaxID)
		if e1 != nil || e2 != nil {
			panic("garbled payload")
		}
		if int(rd) != round-1 {
			panic(fmt.Sprintf("node %d round %d: payload stamped %d (slot refilled too early?)", p.info.Index, round, rd))
		}
		p.heard = append(p.heard, id)
	}
	if round > p.rounds {
		return true
	}
	p.w.Reset()
	p.w.WriteUint(uint64(round), uint64(p.rounds))
	p.w.WriteUint(p.info.ID, p.info.MaxID)
	p.info.Broadcast(&p.w)
	return false
}

func (p *poolSeqProcess) Output() any { return p.heard }

// TestPooledMessagesBitIdentical runs the stamped broadcast with one and
// with four workers and checks (a) payload integrity via the in-process
// round stamps and (b) equality of the full received sequences, proving
// inbox slots are invisible to protocol semantics.
func TestPooledMessagesBitIdentical(t *testing.T) {
	g := gen.GNP(96, 0.07, 9)
	newProc := func(p *poolSeqProcess) { p.rounds = 9 }
	ref, err := RunOutputs(g, newProc, Config{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOutputs(g, newProc, Config{Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Outputs, res.Outputs) {
		t.Fatal("4-worker outputs differ from the 1-worker run")
	}
}

// TestPoolEngineManyRounds pins the persistent-worker pool across a long
// run: workers must survive hundreds of round barriers and shut down
// cleanly (the old engine spawned fresh goroutines per round, so leaks of
// this kind were impossible by construction — now they must be tested).
func TestPoolEngineManyRounds(t *testing.T) {
	g := gen.Cycle(256)
	res, err := RunOutputs(g, func(p *poolSeqProcess) { p.rounds = 300 },
		Config{Seed: 1, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 301 {
		t.Fatalf("rounds = %d, want 301", res.Rounds)
	}
}
