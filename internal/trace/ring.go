package trace

import "sync"

// Ring is an in-memory tracer that keeps the most recent records in a
// fixed-capacity ring buffer. Run metadata and summaries are small and kept
// in full; only the per-round records are bounded. A Ring is safe for
// concurrent use, so a monitoring goroutine may snapshot it mid-run.
type Ring struct {
	mu      sync.Mutex
	cap     int
	buf     []Round // ring storage, len(buf) <= cap
	head    int     // index of the oldest record once the buffer wrapped
	total   int     // records ever observed
	runs    []RunInfo
	sums    []Summary
	started int // runs begun (assigns run indices)
}

// DefaultRingCapacity bounds a Ring built with NewRing(0). It holds every
// round of any protocol in this repository at the default round limit's
// practical sizes while capping memory at ~10 MB.
const DefaultRingCapacity = 1 << 16

// NewRing returns a ring tracer keeping the last capacity round records
// (capacity <= 0 selects DefaultRingCapacity).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{cap: capacity}
}

// BeginRun implements Tracer.
func (r *Ring) BeginRun(info RunInfo) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs = append(r.runs, info)
	r.started++
	return r.started - 1
}

// OnRound implements Tracer.
func (r *Ring) OnRound(rec Round) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.head] = rec
	r.head = (r.head + 1) % r.cap
}

// EndRun implements Tracer.
func (r *Ring) EndRun(s Summary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sums = append(r.sums, s)
}

// Rounds returns the retained records in chronological order.
func (r *Ring) Rounds() []Round {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Round, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Runs returns the metadata of every run begun, in order.
func (r *Ring) Runs() []RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RunInfo, len(r.runs))
	copy(out, r.runs)
	return out
}

// Summaries returns the summaries of every run ended, in order.
func (r *Ring) Summaries() []Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Summary, len(r.sums))
	copy(out, r.sums)
	return out
}

// Dropped reports how many old records the ring has evicted.
func (r *Ring) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - len(r.buf)
}

// Reset discards all recorded state, keeping the capacity.
func (r *Ring) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.buf[:0]
	r.head = 0
	r.total = 0
	r.runs = nil
	r.sums = nil
	r.started = 0
}

var _ Tracer = (*Ring)(nil)

// Totals is a tracer that keeps only aggregate counters — the cheapest way
// to time an execution.
type Totals struct {
	mu sync.Mutex
	TotalsSnapshot
}

// BeginRun implements Tracer.
func (t *Totals) BeginRun(RunInfo) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Runs++
	return t.Runs - 1
}

// OnRound implements Tracer.
func (t *Totals) OnRound(r Round) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Rounds++
	t.Messages += r.Messages
	t.Bits += r.Bits
	t.Retransmits += r.Retransmits
	t.ComputeNanos += r.ComputeNanos
	t.DeliveryNanos += r.DeliveryNanos
}

// EndRun implements Tracer.
func (t *Totals) EndRun(Summary) {}

// TotalsSnapshot holds a Totals' counters; Snapshot returns a copy.
type TotalsSnapshot struct {
	// Runs counts BeginRun calls; Rounds, Messages and Bits total the
	// per-round records.
	Runs     int
	Rounds   int
	Messages int64
	Bits     int64
	// Retransmits totals the reliable transport's re-sent data frames.
	Retransmits int64
	// ComputeNanos and DeliveryNanos total the two wall-clock phases.
	ComputeNanos  int64
	DeliveryNanos int64
}

// Snapshot copies the counters under the lock, so long-lived monitoring
// readers (e.g. a /metrics scrape) never race concurrent runs.
func (t *Totals) Snapshot() TotalsSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.TotalsSnapshot
}

var _ Tracer = (*Totals)(nil)
