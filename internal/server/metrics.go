package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"distmwis/internal/dist"
	"distmwis/internal/stats"
)

// latencySampler keeps a bounded reservoir of recent latencies per label and
// reports quantiles at scrape time via stats.Quantile. A plain ring of the
// last maxSamples observations is deliberate: the service cares about
// recent tail latency, not all-time.
type latencySampler struct {
	mu      sync.Mutex
	samples map[string][]float64 // label → ring of seconds
	next    map[string]int       // label → next write position
	count   map[string]int64     // label → total observations
	sum     map[string]float64   // label → total seconds
	cap     int
}

func newLatencySampler(capPerLabel int) *latencySampler {
	if capPerLabel < 16 {
		capPerLabel = 16
	}
	return &latencySampler{
		samples: make(map[string][]float64),
		next:    make(map[string]int),
		count:   make(map[string]int64),
		sum:     make(map[string]float64),
		cap:     capPerLabel,
	}
}

func (l *latencySampler) observe(label string, seconds float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ring := l.samples[label]
	if len(ring) < l.cap {
		l.samples[label] = append(ring, seconds)
	} else {
		ring[l.next[label]%l.cap] = seconds
		l.next[label] = (l.next[label] + 1) % l.cap
	}
	l.count[label]++
	l.sum[label] += seconds
}

// quantiles returns per-label p50/p95/p99 snapshots, labels sorted.
func (l *latencySampler) quantiles() []latencyQuantiles {
	l.mu.Lock()
	defer l.mu.Unlock()
	labels := make([]string, 0, len(l.samples))
	for label := range l.samples {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	out := make([]latencyQuantiles, 0, len(labels))
	for _, label := range labels {
		sorted := append([]float64(nil), l.samples[label]...)
		sort.Float64s(sorted)
		out = append(out, latencyQuantiles{
			Label: label,
			Count: l.count[label],
			Sum:   l.sum[label],
			P50:   stats.Quantile(sorted, 0.50),
			P95:   stats.Quantile(sorted, 0.95),
			P99:   stats.Quantile(sorted, 0.99),
		})
	}
	return out
}

type latencyQuantiles struct {
	Label         string
	Count         int64
	Sum           float64
	P50, P95, P99 float64
}

// metrics aggregates every service counter exposed on /metrics.
type metrics struct {
	requests  atomic.Int64 // POST /v1/solve accepted for processing
	rejected  atomic.Int64 // 429 token-bucket rejections
	shed      atomic.Int64 // degraded (greedy) responses
	failures  atomic.Int64 // solves that returned an error
	deadlines atomic.Int64 // jobs expired before or during solve wait
	planned   atomic.Int64 // alg=auto requests resolved by the planner

	// Engine totals: the sum of the Metrics of every executed solve
	// (addSolve), the figures its response reports.
	phases, rounds, messages, bits, retransmits atomic.Int64

	latency *latencySampler
}

func newMetrics() *metrics {
	return &metrics{latency: newLatencySampler(4096)}
}

// addSolve adds one executed solve's metrics to the engine totals.
func (m *metrics) addSolve(acc dist.Accumulator) {
	m.phases.Add(int64(acc.Phases))
	m.rounds.Add(int64(acc.Rounds))
	m.messages.Add(acc.Messages)
	m.bits.Add(acc.Bits)
	m.retransmits.Add(acc.Retransmits)
}

// write renders the Prometheus text exposition format. Only the subset of
// the format the ecosystem's scrapers need: HELP/TYPE comments, counters,
// gauges and summary quantiles.
func (m *metrics) write(w io.Writer, srv *Server) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("maxisd_requests_total", "Solve requests accepted for processing.", m.requests.Load())
	counter("maxisd_rejected_total", "Requests rejected by the token bucket (429).", m.rejected.Load())
	counter("maxisd_degraded_total", "Requests answered by the degraded greedy tier.", m.shed.Load())
	counter("maxisd_failures_total", "Solves that returned an error.", m.failures.Load())
	counter("maxisd_deadline_total", "Jobs that missed their deadline.", m.deadlines.Load())
	counter("maxisd_planner_auto_total", "alg=auto requests resolved through the planner.", m.planned.Load())

	hits, misses, evictions, dedups, invalidations, used, entries := srv.cache.stats()
	counter("maxisd_cache_hits_total", "Content-addressed cache hits.", hits)
	counter("maxisd_cache_misses_total", "Content-addressed cache misses.", misses)
	counter("maxisd_cache_evictions_total", "Entries evicted by the byte budget.", evictions)
	counter("maxisd_singleflight_shared_total", "Requests served by another request's in-flight solve.", dedups)
	gauge("maxisd_cache_bytes", "Bytes currently held by the result cache.", used)
	gauge("maxisd_cache_entries", "Entries currently held by the result cache.", int64(entries))

	gauge("maxisd_queue_depth", "Jobs queued and not yet started.", int64(srv.sched.depth()))
	gauge("maxisd_jobs_inflight", "Jobs currently being solved.", srv.sched.inflight.Load())
	counter("maxisd_jobs_done_total", "Jobs completed by the worker pool.", srv.sched.done.Load())
	counter("maxisd_jobs_expired_total", "Jobs skipped because their deadline passed in queue.", srv.sched.expired.Load())
	counter("maxisd_worker_panics_total", "Jobs failed by a worker panic.", srv.sched.panics.Load())
	counter("maxisd_worker_restarts_total", "Worker goroutines replaced after a panic.", srv.sched.restarts.Load())
	counter("maxisd_journal_recovered_total", "Jobs re-enqueued from the write-ahead journal at boot.", srv.recovered.Load())
	counter("maxisd_cache_invalidations_total", "Entries evicted by component-granular invalidation.", invalidations)

	// Dynamic-graph subsystem: mutation volume, invalidation granularity
	// and the self-healing pipeline's progress.
	srv.graphs.mu.Lock()
	graphs := int64(len(srv.graphs.order))
	mutations, invalidatedComps, healed := srv.graphs.mutations, srv.graphs.invalidated, srv.graphs.healed
	srv.graphs.mu.Unlock()
	gauge("maxisd_graphs", "Dynamic graph handles currently stored.", graphs)
	counter("maxisd_graph_mutations_total", "Graph PATCHes applied and journaled.", mutations)
	counter("maxisd_invalidated_components_total", "Connected components whose cached answers a mutation evicted.", invalidatedComps)
	counter("maxisd_healed_answers_total", "Answers healed onto a new graph version after a PATCH.", healed)

	rep := srv.repairTier.Stats()
	gauge("maxisd_repair_queue_depth", "Degraded answers waiting for the background repair tier.", int64(rep.QueueDepth))
	counter("maxisd_repair_improved_total", "Answers upgraded to improved quality (greedy re-admission).", rep.Improved)
	counter("maxisd_repair_upgrades_total", "Answers upgraded to full quality (background re-solve).", rep.Upgraded)
	counter("maxisd_repair_settled_total", "Upgrade tasks removed unrun because a foreground solve already published the answer at full quality.", rep.Settled)
	counter("maxisd_repair_deduped_total", "Upgrade tasks not queued because the same answer key was already queued.", rep.Deduped)
	counter("maxisd_repair_dropped_total", "Upgrade tasks dropped by the bounded repair queue.", rep.Dropped)
	gaugeF("maxisd_answer_staleness_seconds", "Age of the oldest degraded answer awaiting upgrade.", rep.OldestWaitSeconds)

	if inj := srv.opts.Chaos; inj != nil {
		st := inj.Stats()
		counter("maxisd_chaos_requests_total", "Requests evaluated by the chaos injector.", st.Requests)
		counter("maxisd_chaos_latency_total", "Requests with injected latency.", st.Latencies)
		counter("maxisd_chaos_errors_total", "Requests failed with an injected 500.", st.Errors)
		counter("maxisd_chaos_resets_total", "Requests dropped by an injected connection reset.", st.Resets)
		counter("maxisd_chaos_slow_total", "Jobs slowed by the chaos hook.", st.Slows)
		counter("maxisd_chaos_panics_total", "Worker panics injected by the chaos hook.", st.Panics)
	}

	// Engine totals: what executed solves' responses report. Cache hits
	// and failed solves add nothing.
	counter("maxisd_engine_runs_total", "CONGEST protocol phases run by executed solves.", m.phases.Load())
	counter("maxisd_engine_rounds_total", "Rounds reported by executed solves, host bookkeeping rounds included; a failed solve adds nothing.", m.rounds.Load())
	counter("maxisd_engine_messages_total", "Messages reported by executed solves.", m.messages.Load())
	counter("maxisd_engine_bits_total", "Payload bits reported by executed solves.", m.bits.Load())
	counter("maxisd_engine_retransmits_total", "Reliable-transport retransmissions reported by executed solves.", m.retransmits.Load())

	fmt.Fprintf(w, "# HELP maxisd_solve_latency_seconds Recent solve latency quantiles per algorithm.\n")
	fmt.Fprintf(w, "# TYPE maxisd_solve_latency_seconds summary\n")
	for _, q := range m.latency.quantiles() {
		fmt.Fprintf(w, "maxisd_solve_latency_seconds{alg=%q,quantile=\"0.5\"} %g\n", q.Label, q.P50)
		fmt.Fprintf(w, "maxisd_solve_latency_seconds{alg=%q,quantile=\"0.95\"} %g\n", q.Label, q.P95)
		fmt.Fprintf(w, "maxisd_solve_latency_seconds{alg=%q,quantile=\"0.99\"} %g\n", q.Label, q.P99)
		fmt.Fprintf(w, "maxisd_solve_latency_seconds_sum{alg=%q} %g\n", q.Label, q.Sum)
		fmt.Fprintf(w, "maxisd_solve_latency_seconds_count{alg=%q} %d\n", q.Label, q.Count)
	}
}
