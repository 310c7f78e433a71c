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
// loop owns everything cross-cutting — delivery, bandwidth enforcement,
// fault hooks, tracing, reliable-transport accounting — and per round asks
// runRound to call step(v, round) once for every node v in [0, n). The
// executor only schedules those calls and never touches simulator state,
// which is what keeps every worker count bit-identical:
//   - step(v, round) is called at most once per node per round;
//   - node state is only ever touched from one goroutine within a round;
//   - errors are reported by step writing errs[v], and the shared loop scans
//     errs in index order afterwards, so the lowest-index failing node is
//     reported whichever worker stepped it.
//
// With one worker runRound steps nodes in index order on the calling
// goroutine and stops at the first error. With more, persistent workers are
// spawned once and parked on per-worker start channels between rounds;
// runRound releases them and joins on a shared done channel, so per-round
// overhead is `workers` channel operations instead of `workers` goroutine
// launches.
//
// Within a round, work is handed out by guided chunking: a shared atomic
// cursor from which each worker repeatedly claims the next fixed-size chunk
// of node indices. Small chunks mean a worker stuck on a run of hot
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
	start   []chan int
	done    chan struct{}
	wg      sync.WaitGroup
	step    func(v, round int)
	errs    []error
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

func newPoolEngine(n, workers int, step func(v, round int), errs []error) *poolEngine {
	e := &poolEngine{n: n, workers: poolWorkers(n, workers), step: step, errs: errs}
	if e.workers == 1 {
		return e
	}
	e.chunk = poolChunk(n, e.workers)
	e.start = make([]chan int, e.workers)
	e.done = make(chan struct{}, e.workers)
	for w := range e.start {
		e.start[w] = make(chan int, 1)
		e.wg.Add(1)
		go func(ch chan int) {
			defer e.wg.Done()
			for round := range ch {
				for {
					lo := int(e.cursor.Add(int64(e.chunk))) - e.chunk
					if lo >= e.n {
						break
					}
					hi := min(lo+e.chunk, e.n)
					for v := lo; v < hi; v++ {
						e.step(v, round)
					}
				}
				e.done <- struct{}{}
			}
		}(e.start[w])
	}
	return e
}

// runRound executes one compute phase. With workers it releases every
// worker and joins them; the joins form the round barrier, because no
// worker can run ahead while its start channel is only written here, and
// the cursor is reset before any release.
func (e *poolEngine) runRound(round int) {
	if e.workers == 1 {
		for v := 0; v < e.n; v++ {
			e.step(v, round)
			if e.errs[v] != nil {
				// The round is already doomed, and stopping here makes the
				// reported error trivially the lowest-index one.
				break
			}
		}
		return
	}
	e.cursor.Store(0)
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
