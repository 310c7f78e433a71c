package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distmwis/internal/chaos"
	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/maxis"
	"distmwis/internal/plan"
	"distmwis/internal/protocol"
	"distmwis/internal/reliable"
	"distmwis/internal/repair"
)

// Options configures a Server. The zero value is usable; every field has a
// sane default.
type Options struct {
	// Workers is the scheduler worker pool size (default 4).
	Workers int
	// SolveWorkers is the number of goroutines that step nodes within one
	// solve (default 1: the service parallelises across requests, not
	// within one; see congest.Config.Workers).
	SolveWorkers int
	// QueueDepth bounds each priority queue (default 256).
	QueueDepth int
	// CacheBytes is the result cache byte budget (default 64 MiB; negative
	// disables the cache).
	CacheBytes int64
	// Rate and Burst configure the admission token bucket in requests per
	// second (Rate <= 0 disables rate limiting; Burst defaults to 2×Rate).
	Rate  float64
	Burst int
	// ShedDepth is the queued-job count beyond which new requests are
	// downgraded to the degraded greedy tier (default QueueDepth/2).
	ShedDepth int
	// PlannerOpsPerMS calibrates the planner's deadline→work conversion for
	// alg=auto requests: how many work units (one unit ≈ one message handler
	// or delivery) this host sustains per millisecond (default
	// plan.DefaultOpsPerMS; see cmd/maxisd -plan-ops-per-ms).
	PlannerOpsPerMS int64
	// DrainTimeout bounds graceful shutdown (default 30s).
	DrainTimeout time.Duration
	// RestartBudget is the worker-restart count beyond which /readyz
	// reports 503 (default 32; negative disables the check). Worker panics
	// are isolated and the pool self-heals, but a process that keeps
	// panicking is telling its load balancer something.
	RestartBudget int
	// Chaos, when non-nil, installs the fault injector: its middleware
	// wraps the HTTP API and its job hook runs before every scheduled
	// solve (see internal/chaos). Nil means no injection.
	Chaos *chaos.Injector
	// RepairInterval and RepairBudget configure the background repair tier
	// that upgrades degraded graph_ref answers (defaults 50ms and 4096
	// admit-examinations per tick; see internal/repair).
	RepairInterval time.Duration
	RepairBudget   int
	// Cluster, when non-nil, mounts a cluster coordinator's handler at
	// POST /v1/cluster/solve — the front-tier composition: this node keeps
	// its full single-node API and additionally fans solves out over a
	// backend fleet (see internal/cluster; wired by cmd/maxisd -cluster).
	// The server takes an http.Handler rather than a coordinator to keep
	// the dependency arrow pointing cluster→server.
	Cluster http.Handler
	// ClusterMetrics, when non-nil, is appended to the /metrics exposition
	// so the coordinator's counters share the node's scrape endpoint.
	ClusterMetrics func(io.Writer)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.SolveWorkers <= 0 {
		o.SolveWorkers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.Burst <= 0 {
		o.Burst = int(2 * o.Rate)
	}
	if o.ShedDepth <= 0 {
		o.ShedDepth = o.QueueDepth / 2
		if o.ShedDepth < 1 {
			o.ShedDepth = 1
		}
	}
	if o.PlannerOpsPerMS <= 0 {
		o.PlannerOpsPerMS = plan.DefaultOpsPerMS
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.RestartBudget == 0 {
		o.RestartBudget = 32
	}
	return o
}

// historyCap bounds the async job records GET /v1/jobs serves and the
// published answers GET /v1/answers serves, each evicted oldest first.
const historyCap = 4096

// Server is the MaxIS service: scheduler + cache + admission + HTTP API,
// with optional chaos injection and a write-ahead journal.
type Server struct {
	opts    Options
	sched   *scheduler
	cache   *resultCache
	specs   *specMemo
	bucket  *tokenBucket
	metrics *metrics

	jobs     *jobStore
	jobSeq   atomic.Int64
	shutdown atomic.Bool

	// The dynamic-graph subsystem: mutable graph handles (graphstore.go),
	// the published-answer registry and the background repair tier that
	// upgrades degraded answers (answers.go, internal/repair).
	graphs     *graphStore
	answers    *answerRegistry
	repairTier *repair.Tier

	// wal, when set via OpenJournal, is the one journal file: it durably
	// records every accepted async job before the 202 is written (retiring
	// it when it reaches a terminal state) and every graph PUT/PATCH before
	// it is acknowledged or visible; see journal.go.
	wal       *reliable.WAL
	recovered atomic.Int64
	// async counts async and recovered jobs that have not yet stored and
	// committed their terminal response; Drain waits for them, so a clean
	// drain leaves no accepted job uncommitted in the journal.
	async sync.WaitGroup
}

// New assembles a Server; Handler exposes it over HTTP.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		sched:   newScheduler(opts.Workers, opts.QueueDepth),
		cache:   newResultCache(opts.CacheBytes),
		specs:   newSpecMemo(1 << 16),
		bucket:  newTokenBucket(opts.Rate, opts.Burst),
		metrics: newMetrics(),
		jobs:    newJobStore(historyCap),
		graphs:  newGraphStore(),
		answers: newAnswerRegistry(historyCap),
	}
	s.repairTier = repair.New(repair.Options{
		Budget:   opts.RepairBudget,
		Interval: opts.RepairInterval,
		Publish:  s.publishUpgrade,
	})
	if opts.Chaos != nil {
		s.sched.hook = opts.Chaos.JobHook()
	}
	return s
}

// Handler returns the HTTP API mux, wrapped in the chaos middleware when
// an injector is configured.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("PUT /v1/graph", s.handlePutGraph)
	mux.HandleFunc("GET /v1/graph/{hash}", s.handleGetGraph)
	mux.HandleFunc("PATCH /v1/graph/{hash}", s.handlePatchGraph)
	mux.HandleFunc("GET /v1/answers/{key}", s.handleGetAnswer)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.write(w, s)
		if s.opts.ClusterMetrics != nil {
			s.opts.ClusterMetrics(w)
		}
	})
	if s.opts.Cluster != nil {
		mux.Handle("POST /v1/cluster/solve", s.opts.Cluster)
	}
	if s.opts.Chaos != nil {
		return s.opts.Chaos.Middleware(mux)
	}
	return mux
}

// handleReady is the load-balancer signal. Beyond draining, readiness
// degrades when the node is visibly unhealthy: the worker pool has
// restarted past its budget (persistent panics) or the scheduler backlog
// has crossed the shed threshold (new work is being answered by the
// degraded tier anyway, so better routed elsewhere). Liveness (/healthz)
// stays green in both cases — the process is functioning, just impaired.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.shutdown.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if b := s.opts.RestartBudget; b >= 0 {
		if restarts := s.sched.restarts.Load(); restarts > int64(b) {
			http.Error(w, fmt.Sprintf("degraded: %d worker restarts exceed budget %d", restarts, b),
				http.StatusServiceUnavailable)
			return
		}
	}
	if depth := s.sched.depth(); depth >= s.opts.ShedDepth {
		http.Error(w, fmt.Sprintf("saturated: %d jobs queued (shed threshold %d)", depth, s.opts.ShedDepth),
			http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// BeginShutdown flips the server to draining: /readyz turns 503 and new
// solve submissions are rejected. Idempotent.
func (s *Server) BeginShutdown() { s.shutdown.Store(true) }

// Drain completes graceful shutdown: stops the worker pool after every
// accepted job finished and committed, or errors after the configured
// drain timeout.
// The repair tier stops first — abandoning queued upgrades is safe (the
// degraded answers stay served, and a future boot's solves re-derive the
// full ones) while leaking its goroutine is not.
func (s *Server) Drain() error {
	s.BeginShutdown()
	s.repairTier.Stop()
	if err := s.sched.drain(s.opts.DrainTimeout); err != nil {
		return err
	}
	s.async.Wait()
	return nil
}

// Close releases the journal (if open). Call after Drain; jobs completing
// later will fail to commit and simply be re-run on the next boot, which
// determinism makes harmless.
func (s *Server) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// ServiceStats is a point-in-time snapshot of the scheduler and journal
// counters, for drain-outcome logging and tests.
type ServiceStats struct {
	JobsDone         int64 // jobs completed by the worker pool
	JobsExpired      int64 // jobs skipped because their deadline passed in queue
	JobsInFlight     int64 // jobs being solved right now
	QueueDepth       int64 // jobs queued and not yet started
	WorkerPanics     int64 // jobs failed by a worker panic
	WorkerRestarts   int64 // worker goroutines replaced after a panic
	JournalRecovered int64 // jobs re-enqueued from the journal at boot

	Mutations             int64 // graph PATCHes applied
	InvalidatedComponents int64 // cached components evicted by mutations
	RepairQueueDepth      int64 // degraded answers awaiting upgrade
	RepairImproved        int64 // answers upgraded to improved quality
	RepairUpgrades        int64 // answers upgraded to full quality
	RepairSettled         int64 // upgrade tasks a foreground full answer made moot
}

// Stats snapshots the service counters.
func (s *Server) Stats() ServiceStats {
	s.graphs.mu.Lock()
	mutations, invalidated := s.graphs.mutations, s.graphs.invalidated
	s.graphs.mu.Unlock()
	rep := s.repairTier.Stats()
	return ServiceStats{
		JobsDone:         s.sched.done.Load(),
		JobsExpired:      s.sched.expired.Load(),
		JobsInFlight:     s.sched.inflight.Load(),
		QueueDepth:       int64(s.sched.depth()),
		WorkerPanics:     s.sched.panics.Load(),
		WorkerRestarts:   s.sched.restarts.Load(),
		JournalRecovered: s.recovered.Load(),

		Mutations:             mutations,
		InvalidatedComponents: invalidated,
		RepairQueueDepth:      int64(rep.QueueDepth),
		RepairImproved:        rep.Improved,
		RepairUpgrades:        rep.Upgraded,
		RepairSettled:         rep.Settled,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func errorResponse(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, SolveResponse{Status: "failed", Error: fmt.Sprintf(format, args...)})
}

// prepared is everything prepare derives from a normalized request before
// executing it; recovery re-derives the identical values from the
// journaled request, which is what makes replayed solves bit-identical.
type prepared struct {
	g    *graph.Graph
	cfg  maxis.Config
	key  string
	hash string
	// ver is the dynamic-graph version of a graph_ref solve (nil for every
	// other source). It switches on the dynamic-graph hooks of execute:
	// the component-wise solve over its carried components, and
	// publishing every answer to the answer registry (answers.go).
	ver *graphVersion
}

// errUnknownGraph is prepare's error for a graph_ref that names no stored
// handle; handleSolve maps it to 404.
var errUnknownGraph = errors.New("unknown graph")

// prepare runs the build → plan → key stages for a normalized request: it
// materialises the graph (a graph_ref resolves to its handle's current
// snapshot), assembles the solve config, resolves alg=auto and computes
// the cache key.
func (s *Server) prepare(req *SolveRequest) (prepared, error) {
	var p prepared
	var err error
	if req.GraphRef != "" {
		var ok bool
		if p.ver, ok = s.graphs.snapshot(req.GraphRef); !ok {
			return prepared{}, fmt.Errorf("%w %q", errUnknownGraph, req.GraphRef)
		}
		p.g, p.hash = p.ver.g, p.ver.hash
	} else if p.g, err = req.BuildGraph(); err != nil {
		return prepared{}, fmt.Errorf("graph: %w", err)
	}
	if p.cfg, err = req.maxisConfig(s.opts.SolveWorkers); err != nil {
		return prepared{}, err
	}
	if p.cfg.Faults.Enabled() {
		if err := p.cfg.Faults.ValidateFor(p.g.N()); err != nil {
			return prepared{}, fmt.Errorf("fault schedule: %w", err)
		}
	}
	// "auto" resolves through the planner here — before the cache key is
	// computed and before async journalling — so the key and the journal
	// always name a concrete algorithm: two auto requests with different
	// deadlines can cache distinct answers, and replay is bit-identical.
	if req.Alg == plan.Auto {
		d, err := plan.For(p.g, protocol.Params{Eps: req.Eps, Alpha: req.Alpha},
			plan.ForDeadline(req.DeadlineMS, s.opts.PlannerOpsPerMS), p.cfg.MIS)
		if err != nil {
			return prepared{}, fmt.Errorf("plan: %w", err)
		}
		req.Alg = d.Alg
		s.metrics.planned.Add(1)
	}
	if p.ver != nil {
		p.key = refCacheKey(p.ver, req)
	} else {
		p.key, p.hash = cacheKey(p.g, req.Canonical, req.Fingerprint())
	}
	return p, nil
}

// handleSolve is POST /v1/solve for every graph source. It runs the admit
// and decode stages, hands build → plan → key to prepare and the rest to
// execute, and encodes the response.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.shutdown.Load() {
		errorResponse(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !s.bucket.allow() {
		s.metrics.rejected.Add(1)
		errorResponse(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		errorResponse(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := req.Normalize(); err != nil {
		errorResponse(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Fast path: a repeat generator-spec request whose result is still
	// cached is answered without rebuilding the graph — the spec memo
	// resolves the request fingerprint straight to the cache line. The memo
	// is advisory: on any miss (either level) we fall through to the full
	// build-hash-lookup path below.
	var specKey string
	if req.Gen != nil && !req.NoCache && !req.Degraded && req.Alg != plan.Auto {
		specKey = req.specFingerprint()
		if !req.Async {
			if t, ok := s.specs.get(specKey); ok {
				if e, ok := s.cache.get(t.key); ok {
					s.metrics.requests.Add(1)
					s.metrics.latency.observe("cache_hit", time.Since(start).Seconds())
					resp := entryResponse(e, e.set.Members(), true, false)
					resp.ID = fmt.Sprintf("job-%d", s.jobSeq.Add(1))
					resp.GraphHash = t.hash
					resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
					writeJSON(w, http.StatusOK, resp)
					return
				}
			}
		}
	}
	p, err := s.prepare(&req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errUnknownGraph) {
			status = http.StatusNotFound
		}
		errorResponse(w, status, "%v", err)
		return
	}
	s.metrics.requests.Add(1)

	id := fmt.Sprintf("job-%d", s.jobSeq.Add(1))
	if specKey != "" {
		s.specs.put(specKey, specTarget{key: p.key, hash: p.hash})
	}

	// Explicitly degraded requests stay synchronous even with Async set:
	// the host-side answer is cheaper than the job bookkeeping.
	if req.Async && !req.Degraded {
		rec := s.jobs.create(id)
		// The write-ahead contract: the begin record is durable before the
		// 202 acknowledgement, so a crash after this point cannot lose the
		// job — boot-time recovery re-enqueues and re-solves it.
		if err := s.journalBegin(id, &req); err != nil {
			s.metrics.failures.Add(1)
			rec.store(SolveResponse{ID: id, Status: "failed", Error: err.Error()})
			errorResponse(w, http.StatusInternalServerError, "journal: %v", err)
			return
		}
		ctx, cancel := withDeadline(context.Background(), &req)
		s.async.Add(1)
		go func() {
			defer s.async.Done()
			defer cancel()
			resp := s.execute(ctx, &req, p, id, start, true)
			rec.store(resp)
			s.journalCommit(id)
		}()
		writeJSON(w, http.StatusAccepted, SolveResponse{ID: id, Status: "queued", GraphHash: p.hash})
		return
	}

	ctx, cancel := withDeadline(r.Context(), &req)
	defer cancel()
	resp := s.execute(ctx, &req, p, id, start, true)
	writeJSON(w, statusCode(&resp), resp)
}

// withDeadline bounds ctx by the request's deadline_ms, if it has one.
func withDeadline(ctx context.Context, req *SolveRequest) (context.Context, context.CancelFunc) {
	if req.DeadlineMS > 0 {
		return context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
	}
	return ctx, func() {}
}

// errPolyBounds prefixes the error of a solve in which a node's message
// exceeded the CONGEST bandwidth: B = 8·⌈log₂ n⌉ bits carry identifiers
// and weights only when both are poly(n), so the input is at fault and
// statusCode answers 422.
const errPolyBounds = "input breaks the paper's assumption that weights W and node IDs are at most poly(n)"

// statusCode maps a terminal SolveResponse to its HTTP status.
func statusCode(resp *SolveResponse) int {
	switch resp.Status {
	case "done":
		return http.StatusOK
	case "deadline":
		return http.StatusGatewayTimeout
	default:
		if resp.Error == errQueueFull.Error() || resp.Error == errDraining.Error() {
			return http.StatusServiceUnavailable
		}
		if strings.HasPrefix(resp.Error, errPolyBounds) {
			return http.StatusUnprocessableEntity
		}
		return http.StatusInternalServerError
	}
}

// execute runs the cache → shed → single-flight/schedule → solve → publish
// stages for one prepared request — inline graph, gen spec, graph_ref or
// journal replay alike — and always returns a terminal response. allowShed
// is false for journal-recovered jobs: they were accepted with full-solve
// semantics and must be replayed bit-identically, never downgraded by
// present-day load.
func (s *Server) execute(ctx context.Context, req *SolveRequest, p prepared, id string, start time.Time, allowShed bool) SolveResponse {
	finish := func(resp SolveResponse) SolveResponse {
		resp.ID = id
		resp.GraphHash = p.hash
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		if p.ver != nil {
			resp.AnswerKey = p.key
			if resp.Status == "done" {
				resp.Quality = qualityFull
				if resp.Degraded {
					resp.Quality = qualityDegraded
				}
			}
		}
		return resp
	}
	cacheHit := func(e *cacheEntry) SolveResponse {
		s.metrics.latency.observe("cache_hit", time.Since(start).Seconds())
		return finish(entryResponse(e, e.set.Members(), true, false))
	}

	if !req.NoCache && !req.Degraded {
		if e, ok := s.cache.get(p.key); ok {
			return cacheHit(e)
		}
	}

	// The degraded tier answers with the cheap deterministic host-side
	// greedy (graph.Greedy, a (Δ+1)-approximation): on explicit request
	// (the circuit-breaker fallback of internal/server/client), or as load
	// shedding past the queue-depth threshold instead of queueing a full
	// solve.
	if req.Degraded || (allowShed && s.sched.depth() >= s.opts.ShedDepth) {
		set, weight := p.g.Greedy()
		s.metrics.shed.Add(1)
		if p.ver != nil {
			s.publishDegraded(req, p, set, weight, "greedy-degraded")
		}
		s.metrics.latency.observe("degraded", time.Since(start).Seconds())
		return finish(SolveResponse{
			Status:    "done",
			Set:       graph.Members(set),
			Size:      graph.SetSize(set),
			Weight:    weight,
			Degraded:  true,
			Alg:       "greedy-degraded",
			Guarantee: greedyGuarantee(p.g),
		})
	}

	for {
		res, shared, err := s.cache.do(ctx, p.key, func() (solved, error) {
			return s.runScheduled(ctx, req, p)
		})
		if err != nil {
			isCtxErr := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
			if isCtxErr && shared && ctx.Err() == nil {
				// The single-flight leader died of its own deadline or
				// disconnect — not ours. The worker-side solve still
				// completes and lands in the cache, so check it, then retry
				// with this request as (or following) a fresh leader rather
				// than failing a healthy request with someone else's error.
				if e, ok := s.cache.get(p.key); ok {
					return cacheHit(e)
				}
				continue
			}
			switch {
			case isCtxErr:
				s.metrics.deadlines.Add(1)
				return finish(SolveResponse{Status: "deadline", Error: err.Error()})
			case errors.Is(err, congest.ErrBandwidth):
				s.metrics.failures.Add(1)
				return finish(SolveResponse{Status: "failed", Error: fmt.Sprintf("%s: %v", errPolyBounds, err)})
			default:
				s.metrics.failures.Add(1)
				return finish(SolveResponse{Status: "failed", Error: err.Error()})
			}
		}
		s.metrics.latency.observe(req.Alg, time.Since(start).Seconds())
		if p.ver != nil {
			s.publishFull(req, p, res)
		}
		return finish(entryResponse(res.entry, res.set, false, shared))
	}
}

// runScheduled enqueues the solve on the worker pool as one job under
// p.key and waits for it (or for ctx). The solve result is cached
// worker-side, so even if this waiter times out the completed work is
// kept. A worker panic fails this job only: the typed error surfaces here
// while the worker restarts.
func (s *Server) runScheduled(ctx context.Context, req *SolveRequest, p prepared) (solved, error) {
	type outcome struct {
		res solved
		err error
	}
	ch := make(chan outcome, 1)
	j := &job{
		id:       p.key,
		priority: req.Priority,
		ctx:      ctx,
		skipped:  make(chan struct{}),
		failed:   make(chan error, 1),
		run: func(context.Context) {
			res, err := s.solve(req, p)
			ch <- outcome{res, err}
		},
	}
	if err := s.sched.submit(j); err != nil {
		return solved{}, err
	}
	select {
	case out := <-ch:
		return out.res, out.err
	case err := <-j.failed:
		return solved{}, err
	case <-j.skipped:
		return solved{}, context.DeadlineExceeded
	case <-ctx.Done():
		return solved{}, ctx.Err()
	}
}

// solve performs the actual algorithm run; it executes on a scheduler
// worker and caches the entry under p.key unless the request opted out. A
// graph_ref solve runs component-wise (solveRef).
func (s *Server) solve(req *SolveRequest, p prepared) (solved, error) {
	if p.ver != nil {
		return s.solveRef(req, p.g, p.ver.parts, p.cfg, p.key, p.hash)
	}
	res, err := maxis.Solve(req.Alg, p.g, req.Eps, req.Alpha, p.cfg)
	if err != nil {
		return solved{}, err
	}
	out := s.newEntry(req, p.g, p.key, res)
	if !req.NoCache {
		s.cache.put(out.entry)
	}
	return out, nil
}

// newEntry renders an executed solve's result as the cache entry key names,
// with the member indices it packs, and adds its metrics to the engine
// totals. Every executed solve passes here: the inline one (solve) and the
// component-wise one (solveRef, which the repair tier's Full runs too).
func (s *Server) newEntry(req *SolveRequest, g *graph.Graph, key string, res *maxis.Result) solved {
	s.metrics.addSolve(res.Metrics)
	set := graph.Members(res.Set)
	return solved{set: set, entry: &cacheEntry{
		key:       key,
		set:       graph.PackMembers(set),
		weight:    res.Weight,
		rounds:    res.Metrics.Rounds,
		messages:  res.Metrics.Messages,
		bits:      res.Metrics.Bits,
		alg:       req.Alg,
		guarantee: maxis.GuaranteeString(req.Alg, g, req.Eps, req.Alpha, res),
	}}
}

// entryResponse renders e as a response carrying set, e's members.
func entryResponse(e *cacheEntry, set []int32, cached, shared bool) SolveResponse {
	return SolveResponse{
		Status:    "done",
		Set:       set,
		Size:      e.set.Len(),
		Weight:    e.weight,
		Rounds:    e.rounds,
		Messages:  e.messages,
		Bits:      e.bits,
		Cached:    cached,
		Shared:    shared,
		Degraded:  e.degraded,
		Alg:       e.alg,
		Guarantee: e.guarantee,
	}
}

// greedyGuarantee renders the degraded tier's bound: the host-side greedy
// pass is the sequential (Δ+1)-approximation of the Bar-Yehuda et al.
// cheap tier.
func greedyGuarantee(g *graph.Graph) string {
	return fmt.Sprintf("(Δ+1)-approximation = %d (host-side greedy, degraded tier)", g.MaxDegree()+1)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.jobs.get(id)
	if !ok {
		errorResponse(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	resp := rec.load()
	status := http.StatusOK
	if resp.Status == "queued" || resp.Status == "running" {
		status = http.StatusAccepted
	}
	writeJSON(w, status, resp)
}

// jobStore keeps the last historyCap async job records with FIFO eviction.
type jobStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*jobRecord
	order *list.List // front = newest
}

type jobRecord struct {
	mu   sync.Mutex
	resp SolveResponse
}

func (r *jobRecord) store(resp SolveResponse) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resp = resp
}

func (r *jobRecord) load() SolveResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resp
}

func newJobStore(capacity int) *jobStore {
	return &jobStore{cap: capacity, byID: make(map[string]*jobRecord), order: list.New()}
}

func (s *jobStore) create(id string) *jobRecord {
	rec := &jobRecord{resp: SolveResponse{ID: id, Status: "queued"}}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[id] = rec
	s.order.PushFront(id)
	for s.order.Len() > s.cap {
		back := s.order.Back()
		delete(s.byID, back.Value.(string))
		s.order.Remove(back)
	}
	return rec
}

func (s *jobStore) get(id string) (*jobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byID[id]
	return rec, ok
}
