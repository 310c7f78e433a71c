package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds. Measured spans (op, request, handler, part) time real work on
// the request path. A replay span times a public function of a layer,
// called by the benchmark on the same input just before the request is
// sent; it is attributed to the handler span whose stage it reproduces,
// because the handler's internal stages cannot be timed from outside the
// program. A ref span times a call that is not on this workload's request
// path; it is reported but attributed to no parent's time.
const (
	kindOp      = "op"
	kindRequest = "request"
	kindHandler = "handler"
	kindPart    = "part"
	kindReplay  = "replay"
	kindRef     = "ref"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Allocs is the heap allocation count of a replay or ref call, when
	// counted (a runtime.MemStats delta taken while nothing else runs).
	Allocs int64 `json:"allocs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// callCtx names the spans of the call currently in flight, so the span
// middleware on the servers can parent its spans correctly.
type callCtx struct {
	req              int
	request, handler int64
	name             string
}

// tracer keeps spans and per-operation samples in memory for one traced
// run; they are written out when the run ends. A nil *tracer disables
// every hook, which is how the untraced runs execute.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	cur    atomic.Pointer[callCtx]

	mu     sync.Mutex
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14), values: make(map[string][]float64)}
}

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// value records one sample of a per-layer quantity. Safe on a nil tracer.
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// front wraps the handler the clients talk to: each call becomes a handler
// span under its client request span.
func (t *tracer) front(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := t.cur.Load()
		start := t.now()
		h.ServeHTTP(w, r)
		if c != nil {
			t.add(span{ID: c.handler, Parent: c.request, Req: c.req, Name: c.name, Kind: kindHandler, Start: start, End: t.now()})
		}
	})
}

// backend wraps a cluster backend's handler: each part solve becomes a
// cluster.part span under the coordinator's handler span. Readiness
// probes are not spans.
func (t *tracer) backend(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := t.cur.Load()
		if c == nil || r.URL.Path != "/v1/solve" {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{ID: t.id(), Parent: c.handler, Req: c.req, Name: "cluster.part", Kind: kindPart, Start: start, End: t.now()})
	})
}

// opTrace is the traced view of one operation: the handler span IDs its
// calls will produce, to which stage replays are attributed.
type opTrace struct {
	t        *tracer
	req      int
	handlers []int64
}

// replay times fn as a stage of call k's handler.
func (o *opTrace) replay(k int, name string, fn func()) {
	o.timed(o.handlers[k], name, kindReplay, false, fn)
}

// replayAllocs is replay plus a heap allocation count.
func (o *opTrace) replayAllocs(k int, name string, fn func()) {
	o.timed(o.handlers[k], name, kindReplay, true, fn)
}

// ref times fn, with its allocations, as a call off the request path.
func (o *opTrace) ref(k int, name string, fn func()) {
	o.timed(o.handlers[k], name, kindRef, true, fn)
}

func (o *opTrace) timed(parent int64, name, kind string, allocs bool, fn func()) {
	var before runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&before)
	}
	start := o.t.now()
	fn()
	end := o.t.now()
	s := span{ID: o.t.id(), Parent: parent, Req: o.req, Name: name, Kind: kind, Start: start, End: end}
	if allocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.Allocs = int64(after.Mallocs - before.Mallocs)
	}
	o.t.add(s)
}

// tracedLoop replays ops with one client for dur. Before each operation
// the workload's stage replays run; then its calls are sent with the span
// context set. sample runs after each operation (for gauges such as the
// repair queue depth). It returns the results and the time spent inside
// operations, which excludes the replays.
func tracedLoop(t *tracer, d *sender, w workload, ops []op, dur time.Duration, sample func()) ([]opResult, time.Duration) {
	res := make([]opResult, len(ops))
	var buf bytes.Buffer
	var ar arena
	var busy time.Duration
	deadline := time.Now().Add(dur)
	for i := 0; i < len(ops) && time.Now().Before(deadline); i++ {
		o := &ops[i]
		ot := &opTrace{t: t, req: i, handlers: make([]int64, len(o.calls))}
		for k := range o.calls {
			ot.handlers[k] = t.id()
		}
		w.stages(i, ot)
		opID := t.id()
		r := opResult{done: true, calls: make([]callResult, len(o.calls))}
		opStart := t.now()
		for k, c := range o.calls {
			reqID := t.id()
			t.cur.Store(&callCtx{req: i, request: reqID, handler: ot.handlers[k], name: c.span})
			s := t.now()
			r.calls[k] = d.do(c, &buf, &ar)
			e := t.now()
			t.cur.Store(nil)
			t.add(span{ID: reqID, Parent: opID, Req: i, Name: "client.request", Kind: kindRequest, Start: s, End: e})
		}
		opEnd := t.now()
		t.add(span{ID: opID, Req: i, Name: "op", Kind: kindOp, Start: opStart, End: opEnd})
		r.lat = time.Duration(opEnd - opStart)
		busy += r.lat
		res[i] = r
		sample()
	}
	return res, busy
}

// selfTimes computes each span's self time: its duration minus the part of
// its interval covered by measured child spans, minus the durations of the
// replay spans attributed to it. Where measured siblings overlap (the
// parallel cluster.part spans), each shared instant is split evenly among
// them, so self times add up to the operation time. Ref spans are
// attributed to nothing.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 && s.Kind != kindRef {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	share := make(map[int64]float64, len(spans))
	for i := range spans {
		s := &spans[i]
		var measured []*span
		for _, c := range children[s.ID] {
			if c.Kind != kindReplay {
				measured = append(measured, c)
			}
		}
		splitOverlap(measured, s.Start, s.End, share)
	}
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Kind == kindRef {
			continue
		}
		var measured [][2]int64
		var replayed int64
		for _, c := range children[s.ID] {
			if c.Kind == kindReplay {
				replayed += c.dur()
			} else {
				measured = append(measured, [2]int64{c.Start, c.End})
			}
		}
		own := s.dur() - covered(measured, s.Start, s.End) - replayed
		if sh, ok := share[s.ID]; ok && s.dur() > 0 {
			own = int64(float64(own) * sh / float64(s.dur()))
		}
		self[s.ID] = own
	}
	return self
}

// splitOverlap records, for each span of a sibling group, its share of the
// group's time inside [lo, hi]: every instant is divided evenly among the
// spans active at it.
func splitOverlap(group []*span, lo, hi int64, share map[int64]float64) {
	if len(group) < 2 {
		return
	}
	var cuts []int64
	for _, c := range group {
		cuts = append(cuts, max(c.Start, lo), min(c.End, hi))
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	for _, c := range group {
		share[c.ID] = 0
	}
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b <= a {
			continue
		}
		var active []*span
		for _, c := range group {
			if c.Start <= a && c.End >= b {
				active = append(active, c)
			}
		}
		for _, c := range active {
			share[c.ID] += float64(b-a) / float64(len(active))
		}
	}
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// layerRow is one line of the self-time summary.
type layerRow struct {
	name        string
	count       int
	total, self int64
	ref         bool
}

// summarize prints every layer's self time, with the operations' own self
// time as the "unaccounted" line, so the rows add up to the traced
// operation time.
func summarize(w io.Writer, spans []span) {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var order []string
	var opTotal, selfSum int64
	for i := range spans {
		s := &spans[i]
		r, ok := rows[s.Name]
		if !ok {
			r = &layerRow{name: s.Name, ref: s.Kind == kindRef}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		r.count++
		r.total += s.dur()
		if s.Kind != kindRef {
			r.self += self[s.ID]
			selfSum += self[s.ID]
		}
		if s.Kind == kindOp {
			opTotal += s.dur()
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return rows[order[a]].self > rows[order[b]].self })
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(w, "self time per layer (traced run, %d spans; replay stages are attributed to the handler they reproduce)\n", len(spans))
	fmt.Fprintf(w, "  %-28s %7s %12s %12s %7s\n", "layer", "count", "total_ms", "self_ms", "share")
	for _, name := range order {
		r := rows[name]
		if r.ref {
			continue
		}
		label := r.name
		if label == "op" {
			label = "unaccounted (op minus requests)"
		}
		fmt.Fprintf(w, "  %-28s %7d %12.3f %12.3f %6.1f%%\n", label, r.count, ms(r.total), ms(r.self), 100*float64(r.self)/float64(max(opTotal, 1)))
	}
	fmt.Fprintf(w, "  %-28s %7s %12.3f %12.3f %6.1f%%\n", "sum of self times", "", ms(opTotal), ms(selfSum), 100*float64(selfSum)/float64(max(opTotal, 1)))
	for _, name := range order {
		if r := rows[name]; r.ref {
			fmt.Fprintf(w, "  reference, off the request path: %s count=%d total_ms=%.3f\n", r.name, r.count, ms(r.total))
		}
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
