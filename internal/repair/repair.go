// Package repair is the background answer-upgrade tier. The serving tier
// publishes answers that are independent but not always best-effort-final:
// deadline shedding degrades them, and graph mutations leave cached answers
// for neighbouring components healed-but-unpolished. Rather than block a
// request on recomputation, the server enqueues the degraded answer here
// and republishes as quality improves.
//
// Each queued task carries an immutable snapshot of the graph version it
// answers, so an upgrade is always for the exact bytes the original answer
// described — a concurrent mutation enqueues its own task for the new
// version instead of racing this one.
//
// Enqueueing is cheap: all phase work runs on the tier's goroutine, not
// in its producer. A task can also be answered before the tier reaches it
// — the server's foreground solve publishes the same full answer under the
// same key — so every step first sweeps the queue for tasks whose Done
// callback reports them settled. A settled task leaves the queue with no
// further work and no publish, and releases its graph snapshot.
//
// A task advances through three phases, each publish monotonically better:
//
//	heal     reliable.Repair withdraws, on every conflicting edge, the
//	         endpoint graph.Before ranks later, restoring independence;
//	improve  a budgeted graph.Extend pass re-admits every still-feasible
//	         node in graph.WeightOrder (heavier first, lower identifier on
//	         ties) — one full pass reaches maximality, published as
//	         "improved". From an empty start it is graph.Greedy's answer,
//	         the same set the degraded tier serves;
//	full     the task's Full callback (a real solve) replaces the greedy
//	         answer, published as "full", on the tick after the improved
//	         publish.
//
// Work per tick is bounded: the greedy pass examines at most Budget nodes
// before yielding, so one huge component cannot starve the queue or stall
// shutdown. All phase logic is deterministic; only tick timing is not.
package repair

import (
	"slices"
	"sync"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/reliable"
)

// Quality tags, ordered worst to best. The zero tag is the server's
// "degraded"; this tier only ever publishes the two upgrades.
const (
	QualityImproved = "improved"
	QualityFull     = "full"
)

// Answer is one published upgrade.
type Answer struct {
	// Set is the upgraded independent set, indexed by node of the task's
	// graph snapshot.
	Set []bool
	// Weight is Set's total weight under the snapshot's weights.
	Weight int64
	// Quality is QualityImproved or QualityFull.
	Quality string
	// Alg names what produced the set: "greedy-improved" for the budgeted
	// admit pass, the task's FullAlg for the final solve.
	Alg string
	// GraphHash is the task's GraphHash, handed back so the publisher needs
	// no other record of which version the answer describes.
	GraphHash string
}

// Task is one degraded answer awaiting upgrade.
type Task struct {
	// Key identifies the answer being upgraded; Publish receives it back.
	// Enqueueing a key already queued is a no-op (the queued task already
	// upgrades the same answer).
	Key string
	// G is the graph version the answer describes. Graphs are immutable, so
	// holding the snapshot is safe under concurrent mutation.
	G *graph.Graph
	// GraphHash names G's version; every published Answer carries it.
	GraphHash string
	// Start is the degraded set to upgrade. The tier takes ownership.
	Start []bool
	// Done optionally reports that the answer under Key is already at
	// QualityFull — published by someone else — so the task has nothing
	// left to do. Each step sweeps every queued task whose Done reports
	// true before any work. Called on the tier's goroutine without the
	// tier's lock; must not call back into the Tier.
	Done func() bool
	// FullAlg names the algorithm Full runs, for the published answer.
	FullAlg string
	// Full optionally computes the final answer (a real solve of G). It
	// runs on the tier's goroutine, one tick after the improved publish;
	// nil stops the task at QualityImproved.
	Full func() (set []bool, weight int64, err error)

	enqueued time.Time
	order    []int32 // graph.WeightOrder of G, built lazily
	pos      int     // graph.Extend resume cursor into order
	improved bool    // greedy pass done, improved answer published
}

// Options configures a Tier. Zero values select the defaults noted.
type Options struct {
	// Budget is the maximum admit examinations per tick (default 4096).
	Budget int
	// Interval is the tick period (default 50ms).
	Interval time.Duration
	// QueueDepth bounds the queue; Enqueue beyond it drops the task and
	// counts it (default 256). Dropping is safe — the degraded answer
	// stays served, merely unimproved.
	QueueDepth int
	// Publish receives every upgrade. Called on the tier's goroutine (or
	// the Step caller's); must not call back into the Tier.
	Publish func(key string, a Answer)
}

// Stats is a point-in-time snapshot of the tier's counters.
type Stats struct {
	// QueueDepth is the number of tasks currently waiting or in progress.
	QueueDepth int
	// Enqueued / Dropped / Deduped count Enqueue outcomes.
	Enqueued, Dropped, Deduped int64
	// Settled counts queued tasks swept because their Done reported the
	// answer already full: work the tier skipped, not work it did.
	Settled int64
	// Improved and Upgraded count publishes at each quality.
	Improved, Upgraded int64
	// OldestWaitSeconds is the age of the oldest queued task (0 if empty):
	// the staleness bound on published degraded answers.
	OldestWaitSeconds float64
}

// Tier runs the upgrade loop. Create with New; it starts its goroutine
// lazily on the first Enqueue and Stop joins it.
type Tier struct {
	opts Options

	mu      sync.Mutex
	queue   []*Task
	pending map[string]bool
	stats   Stats
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// New returns an idle Tier; no goroutine exists until the first Enqueue.
func New(opts Options) *Tier {
	if opts.Budget <= 0 {
		opts.Budget = 4096
	}
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	return &Tier{opts: opts, pending: make(map[string]bool)}
}

// Enqueue queues one degraded answer for upgrade. Returns false when the
// task was not queued: duplicate key, full queue, or stopped tier.
func (t *Tier) Enqueue(task Task) bool {
	if task.G == nil || len(task.Start) != task.G.N() || task.Key == "" {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started && t.stop == nil {
		return false // stopped; server is draining
	}
	if t.pending[task.Key] {
		t.stats.Deduped++
		return false
	}
	if len(t.queue) >= t.opts.QueueDepth {
		t.stats.Dropped++
		return false
	}
	task.enqueued = time.Now()
	t.queue = append(t.queue, &task)
	t.pending[task.Key] = true
	t.stats.Enqueued++
	if !t.started {
		t.started = true
		t.stop = make(chan struct{})
		t.done = make(chan struct{})
		go t.loop(t.stop, t.done)
	}
	return true
}

// Stop halts the loop and joins its goroutine. Further Enqueues are
// rejected; queued tasks are abandoned (their degraded answers stay
// served). Safe to call more than once, or before any Enqueue.
func (t *Tier) Stop() {
	t.mu.Lock()
	stop, done := t.stop, t.done
	t.stop = nil
	t.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Stats returns a snapshot of the tier's counters.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.QueueDepth = len(t.queue)
	if len(t.queue) > 0 {
		s.OldestWaitSeconds = time.Since(t.queue[0].enqueued).Seconds()
	}
	return s
}

func (t *Tier) loop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(t.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			t.Step()
		}
	}
}

// Step performs one tick of work synchronously: it sweeps settled tasks,
// advances the head task by at most Budget examinations, publishing any
// upgrades reached, and reports whether any work was done — sweeping alone
// is not work. The loop calls it on each tick; tests call it directly for
// deterministic scheduling.
func (t *Tier) Step() bool {
	t.settle()
	t.mu.Lock()
	if len(t.queue) == 0 {
		t.mu.Unlock()
		return false
	}
	task := t.queue[0]
	t.mu.Unlock()

	// Phase work runs unlocked: the task is only ever touched by the
	// single loop/Step caller, and the graph snapshot is immutable.
	finished := t.advance(task)

	t.mu.Lock()
	defer t.mu.Unlock()
	if finished && len(t.queue) > 0 && t.queue[0] == task {
		t.queue[0] = nil // release the task's graph
		t.queue = t.queue[1:]
		delete(t.pending, task.Key)
	}
	return true
}

// settle removes every queued task whose Done reports true, keeping the
// others in FIFO order. Done runs without the lock: it is the server's
// code, and only the Step caller removes tasks, so the ones it found
// settled are still queued when it relocks.
func (t *Tier) settle() {
	t.mu.Lock()
	queued := slices.Clone(t.queue)
	t.mu.Unlock()
	settled := make(map[*Task]bool)
	for _, task := range queued {
		if task.Done != nil && task.Done() {
			settled[task] = true
		}
	}
	if len(settled) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// DeleteFunc clears the vacated tail, so swept tasks pin nothing.
	t.queue = slices.DeleteFunc(t.queue, func(task *Task) bool {
		if !settled[task] {
			return false
		}
		delete(t.pending, task.Key)
		t.stats.Settled++
		return true
	})
}

// advance runs one budgeted slice of the task's phase machine. Returns
// true when the task is complete and should leave the queue.
func (t *Tier) advance(task *Task) bool {
	g := task.G
	if task.order == nil {
		// First touch: heal, then fix the admit order. Repair mutates
		// Start in place and only withdraws, so independence holds from
		// here on.
		reliable.Repair(g, task.Start)
		task.order = g.WeightOrder()
	}

	if !task.improved {
		task.pos, _ = g.Extend(task.Start, task.order, task.pos, t.opts.Budget)
		if task.pos < len(task.order) {
			return false // budget exhausted; resume next tick
		}
		task.improved = true
		t.publish(task, Answer{
			Set:     append([]bool(nil), task.Start...),
			Weight:  g.SetWeight(task.Start),
			Quality: QualityImproved,
			Alg:     "greedy-improved",
		}, &t.stats.Improved)
		// The full solve gets its own tick so one task never holds the
		// queue for a greedy pass and a solve in the same step.
		return task.Full == nil
	}

	set, weight, err := task.Full()
	if err != nil {
		// The improved answer is already out; a failed solve just ends
		// the task there.
		return true
	}
	t.publish(task, Answer{Set: set, Weight: weight, Quality: QualityFull, Alg: task.FullAlg}, &t.stats.Upgraded)
	return true
}

func (t *Tier) publish(task *Task, a Answer, counter *int64) {
	t.mu.Lock()
	*counter++
	t.mu.Unlock()
	if t.opts.Publish != nil {
		a.GraphHash = task.GraphHash
		t.opts.Publish(task.Key, a)
	}
}
