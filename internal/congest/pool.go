package congest

import (
	"sync"
	"sync/atomic"
)

// minParallelNodes is the smallest graph whose node steps are fanned out
// over workers. Below it a round's compute is cheaper than the round
// barrier, so the executor steps nodes inline whatever the worker count.
const minParallelNodes = 64

// poolEngine is the executor of the shared round loop in simulator.run. The
// loop owns everything cross-cutting — bandwidth enforcement, fault hooks,
// tracing, reliable-transport accounting — and per round asks runRound to
// step every node in its list of live nodes: it hands the list, whole or
// in chunks, to step(w, nodes, round), where w is the index of the worker
// making the call. The executor only schedules those calls, which is what
// keeps every worker count bit-identical:
//   - every listed node is in exactly one call per round;
//   - node state is only ever touched from one goroutine within a round;
//   - a step writes only its own nodes' state, the receive slots of their
//     arcs, and worker w's tallies, which the loop merges after the
//     barrier; a failing step records its error with worker w, and the
//     merge reports the lowest-index failing node whichever worker
//     stepped it.
//
// With one worker runRound steps the whole list (ascending index) in one
// call on the calling goroutine, which stops at the first failing node.
// With more, persistent workers are spawned once and parked on per-worker
// start channels between rounds; runRound releases them and joins on a
// shared done channel, so per-round overhead is `workers` channel
// operations instead of `workers` goroutine launches.
//
// Within a round, work is handed out by guided chunking: a shared atomic
// cursor from which each worker repeatedly claims the next fixed-size chunk
// of the node list. Small chunks mean a worker stuck on a run of hot
// high-degree nodes (power-law graphs cluster hubs at low indices) only
// monopolises one chunk's worth of them while the others drain the rest —
// a static contiguous split would pin the entire hub range to a single
// worker. Which worker claims which chunk does not matter: per-node
// randomness is pre-seeded.
type poolEngine struct {
	n       int
	workers int
	chunk   int
	cursor  atomic.Int64
	nodes   []int32 // the round's node list, set before workers are released
	start   []chan int
	done    chan struct{}
	wg      sync.WaitGroup
	step    func(w int, nodes []int32, round int)
}

// poolWorkers resolves a requested worker count for an n-node run: 1 when
// at most one worker is asked for or n < minParallelNodes, otherwise the
// request clamped to n.
func poolWorkers(n, workers int) int {
	if workers <= 1 || n < minParallelNodes {
		return 1
	}
	return min(workers, n)
}

// poolChunk picks the guided chunk size: aim for several chunks per worker
// so skewed per-node costs rebalance, with a floor that keeps the atomic
// cursor off the profile for small n.
func poolChunk(n, workers int) int {
	chunk := n / (workers * 8)
	if chunk < 16 {
		chunk = 16
	}
	return chunk
}

func newPoolEngine(n, workers int, step func(w int, nodes []int32, round int)) *poolEngine {
	e := &poolEngine{n: n, workers: poolWorkers(n, workers), step: step}
	if e.workers == 1 {
		return e
	}
	e.chunk = poolChunk(n, e.workers)
	e.start = make([]chan int, e.workers)
	e.done = make(chan struct{}, e.workers)
	for w := range e.start {
		e.start[w] = make(chan int, 1)
		e.wg.Add(1)
		go func(w int, ch chan int) {
			defer e.wg.Done()
			for round := range ch {
				for {
					lo := int(e.cursor.Add(int64(e.chunk))) - e.chunk
					if lo >= len(e.nodes) {
						break
					}
					e.step(w, e.nodes[lo:min(lo+e.chunk, len(e.nodes))], round)
				}
				e.done <- struct{}{}
			}
		}(w, e.start[w])
	}
	return e
}

// runRound executes one compute phase over nodes, an ascending list of
// indices below n. With workers it releases every worker and joins them;
// the joins form the round barrier, because no worker can run ahead while
// its start channel is only written here, and the cursor and the list are
// set before any release.
func (e *poolEngine) runRound(round int, nodes []int32) {
	if e.workers == 1 {
		e.step(0, nodes, round)
		return
	}
	e.cursor.Store(0)
	e.nodes = nodes
	for _, ch := range e.start {
		ch <- round
	}
	for range e.start {
		<-e.done
	}
}

// shutdown terminates and joins all workers; the executor is unusable
// afterwards.
func (e *poolEngine) shutdown() {
	for _, ch := range e.start {
		close(ch)
	}
	e.wg.Wait()
}
