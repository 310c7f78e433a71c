package congest

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/wire"
)

// misbehaver runs the broadcast of poolSeqProcess and, in round failAt,
// makes node culprit break a rule the simulator enforces while the other
// nodes' messages are in flight: after its broadcast it sends on one port
// more than it has ("ports") or a second time on port 0 ("twice"), or it
// broadcasts a message far over the bandwidth instead ("bandwidth").
type misbehaver struct {
	poolSeqProcess
	failAt  int
	culprit int
	mode    string
}

func (p *misbehaver) Round(round int, recv []*Message) bool {
	if round != p.failAt || p.info.Index != p.culprit {
		return p.poolSeqProcess.Round(round, recv)
	}
	var w wire.Writer
	switch p.mode {
	case "ports":
		p.poolSeqProcess.Round(round, recv)
		w.WriteBool(true)
		p.info.Send(p.info.Degree, &w)
	case "twice":
		p.poolSeqProcess.Round(round, recv)
		w.WriteBool(true)
		p.info.Send(0, &w)
	default:
		for i := 0; i < 64; i++ {
			w.WriteBits(uint64(i), 64) // over wire.CongestBytes: a spilled writer
		}
		p.info.Broadcast(&w)
	}
	return false
}

// lastWithNeighbours is the highest-index node of g with degree ≥ 1.
func lastWithNeighbours(t *testing.T, g *graph.Graph) int {
	for v := g.N() - 1; v >= 0; v-- {
		if g.Degree(v) > 0 {
			return v
		}
	}
	t.Fatal("graph has no edges")
	return -1
}

// TestEveryExitLeavesRunStateClean pins the one-cleanup rule: a run that
// fails mid-flight (a port out of range, a second send on a port, or a
// bandwidth violation) and a run cut off by
// Config.HardStop must both hand their pooled state back clean, so the next
// run on it is exactly the run made before them.
func TestEveryExitLeavesRunStateClean(t *testing.T) {
	g := gen.GNP(150, 0.05, 4)
	culprit := lastWithNeighbours(t, g)
	for _, exec := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"pool", 2}} {
		for _, mode := range []string{"ports", "twice", "bandwidth"} {
			t.Run(fmt.Sprintf("%s/%s", exec.name, mode), func(t *testing.T) {
				c := Config{Seed: 9, Workers: exec.workers}
				normal := func() (*OutputResult, *OutputResult) {
					seq, err := RunOutputs(g, func(p *poolSeqProcess) { p.rounds = 7 }, c)
					if err != nil {
						t.Fatal(err)
					}
					coins, err := RunOutputs[coinFlipper](g, nil, c)
					if err != nil {
						t.Fatal(err)
					}
					return seq, coins
				}
				refSeq, refCoins := normal()

				bad := func(p *misbehaver) {
					*p = misbehaver{poolSeqProcess: poolSeqProcess{rounds: 7}, failAt: 4, culprit: culprit, mode: mode}
				}
				if _, err := RunOutputs(g, bad, c); err == nil {
					t.Fatal("rule violation went unreported")
				}
				stop := c
				stop.HardStop = 3
				cut, err := RunOutputs(g, bad, stop)
				if err != nil {
					t.Fatal(err)
				}
				if !cut.Truncated || cut.Rounds != 3 {
					t.Fatalf("hard stop: truncated %v after %d rounds, want true after 3", cut.Truncated, cut.Rounds)
				}

				seq, coins := normal()
				if !reflect.DeepEqual(seq, refSeq) {
					t.Error("broadcast run differs after a failed and a truncated run")
				}
				if !reflect.DeepEqual(coins, refCoins) {
					t.Error("randomness differs after a failed and a truncated run")
				}
			})
		}
	}
}

// TestConcurrentRunsShareRunState runs eight simulations at once, each on
// its own graph and each with one and with two workers, against the shared
// run-state and process-array pools. Every result must equal its
// one-worker reference, and a Result kept from an earlier run must not
// change while later runs reuse the pooled state it was computed on.
func TestConcurrentRunsShareRunState(t *testing.T) {
	const runs = 8
	newProc := func(p *poolSeqProcess) { p.rounds = 6 }
	gs := make([]*graph.Graph, runs)
	refs := make([]*OutputResult, runs)
	for i := range gs {
		gs[i] = gen.GNP(120+10*i, 0.06, uint64(i+1))
		res, err := RunOutputs(gs[i], newProc, Config{Seed: uint64(i + 1), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res
	}
	kept := make([]any, len(refs[0].Outputs))
	for v, out := range refs[0].Outputs {
		kept[v] = append([]uint64(nil), out.([]uint64)...)
	}

	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, workers := range []int{2, 1} {
				res, err := RunOutputs(gs[i], newProc, Config{Seed: uint64(i + 1), Workers: workers})
				if err != nil {
					t.Errorf("run %d, %d workers: %v", i, workers, err)
					return
				}
				if !reflect.DeepEqual(res, refs[i]) {
					t.Errorf("run %d, %d workers: result differs from its one-worker reference", i, workers)
				}
			}
		}(i)
	}
	wg.Wait()
	if !reflect.DeepEqual(refs[0].Outputs, kept) {
		t.Error("outputs kept from an earlier run changed when later runs reused the pooled state")
	}
}

// xorFlood broadcasts one (round, ID, coin) message per round and
// folds everything it hears into one word, so its own per-round work
// allocates nothing: any per-round allocation in a run of it is the round
// loop's.
type xorFlood struct {
	info   NodeInfo
	rounds int
	acc    uint64
}

func (p *xorFlood) Init(info NodeInfo) { p.info = info }

func (p *xorFlood) Round(round int, recv []*Message) bool {
	for _, m := range recv {
		if m == nil {
			continue
		}
		v, err := m.Reader().ReadBits(m.Bits())
		if err != nil {
			panic(err)
		}
		p.acc ^= v
	}
	if round > p.rounds {
		return true
	}
	var w wire.Writer
	w.WriteUint(uint64(round), uint64(p.rounds))
	w.WriteUint(p.info.ID, p.info.MaxID)
	w.WriteBits(p.info.Rand.Uint64(), 16)
	p.info.Broadcast(&w)
	return false
}

// Output is a bool, which converts to any without allocating, so a run's
// allocation count is the simulator's alone.
func (p *xorFlood) Output() any { return p.acc&1 == 1 }

// TestRoundLoopAllocsFlat pins the allocation-free round loop: on gnp
// n = 2000 (which has an isolated node, whose Broadcast goes nowhere), a
// 40-round run of a broadcast may allocate at most a small constant more
// than a 4-round run, and the 4-round run itself only a constant:
// processes come from a recycled array and a send copies a stack writer
// into the receivers' slots. Per-node processes, outboxes, writer buffers
// or message objects would each add O(n) allocations per run or per
// round. The garbage
// collector is off while counting, because collections age the scratch
// free list and a refill would be charged to whichever run it lands in.
func TestRoundLoopAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	g := gen.GNP(2000, 0.004, 1)
	allocs := func(rounds int) float64 {
		run := func() {
			if _, err := RunOutputs(g, func(p *xorFlood) { p.rounds = rounds }, Config{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, run)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	short, long := allocs(4), allocs(40)
	t.Logf("allocs per run: 4 rounds %.0f, 40 rounds %.0f", short, long)
	if short > 64 {
		t.Errorf("a 4-round run on 2000 nodes costs %.0f allocations, want ≤ 64", short)
	}
	if long-short > 64 {
		t.Errorf("36 extra rounds cost %.0f allocations (4 rounds: %.0f, 40 rounds: %.0f), want ≤ 64", long-short, short, long)
	}
}

// TestScratchesAgeWithTheCollector pins the free list's reclamation rule:
// a released scratch is handed out again, and one left idle through two
// garbage collections is dropped, as a sync.Pool drops its items.
func TestScratchesAgeWithTheCollector(t *testing.T) {
	s := NewScratch()
	s.Release()
	if again := NewScratch(); again != s {
		t.Fatal("a released scratch was not handed out again")
	} else {
		again.Release()
	}
	idle := func() int {
		scratches.mu.Lock()
		defer scratches.mu.Unlock()
		return len(scratches.free) + len(scratches.old)
	}
	// Cleanups run after a collection, on their own goroutine: collect
	// until the list has aged out, within a bound.
	for i := 0; i < 100 && idle() > 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := idle(); n > 0 {
		t.Errorf("%d idle scratches survived 100 collections", n)
	}
}
