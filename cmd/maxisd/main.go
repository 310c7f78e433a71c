// Command maxisd is the MaxIS service daemon: it exposes the solvers of
// internal/maxis over an HTTP JSON API with a batching scheduler, a
// content-addressed result cache, admission control and Prometheus-style
// metrics (see internal/server).
//
// Endpoints:
//
//	POST  /v1/solve            solve a graph (sync, async, or by graph_ref)
//	POST  /v1/cluster/solve    fan a solve out over the -backends fleet (with -cluster)
//	GET   /v1/jobs/{id}        poll an async job
//	PUT   /v1/graph            upload a dynamic graph handle
//	GET   /v1/graph/{hash}     inspect a handle (any hash it has ever had)
//	PATCH /v1/graph/{hash}     mutate a handle (edge add/remove, weights)
//	GET   /v1/answers/{key}    watch a published answer's quality climb
//	GET   /healthz             liveness (200 while the process runs)
//	GET   /readyz              readiness (503 once draining, restart budget blown, or saturated)
//	GET   /metrics             Prometheus text exposition
//
// Usage:
//
//	maxisd -addr :8080 -workers 4 -cache-bytes 67108864 -rate 2000 \
//	       -journal /var/lib/maxisd/maxisd.wal
//
// -journal enables the write-ahead journal, one file for both kinds of
// accepted work. Every graph PUT/PATCH is durable before it is acknowledged
// or visible, and is replayed (hash-verified) on boot. Every async job is
// durable before its 202 and, if the process dies mid-solve, is replayed
// deterministically on the next boot. Concurrent records share fsyncs: an
// append waits for the next sync to start after it was written and issues
// that sync itself when none is in flight, so there is nothing to tune. A
// deployment that ran the earlier two-file layout carries over after a
// clean drain with `cat graphs.wal jobs.wal > maxisd.wal`.
//
// -repair-interval and -repair-budget tune the background tier that
// upgrades degraded answers. -chaos installs the seeded fault injector of
// internal/chaos for soak testing.
//
// -cluster turns the node into a sharded-serving front tier: POST
// /v1/cluster/solve partitions the request's graph (internal/partition),
// fans the parts out over the -backends fleet, reconciles cut-edge
// conflicts and returns a verified independent set with per-partition
// provenance. The node's own single-node API stays fully available — the
// front tier is an addition, not a mode switch.
//
// SIGINT and SIGTERM are equivalent: both start a graceful shutdown — new
// requests get 503, accepted jobs finish, and the process exits within
// -drain-timeout, logging the drain outcome.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distmwis/internal/chaos"
	"distmwis/internal/cluster"
	"distmwis/internal/server"
)

// Connection limits of the HTTP server. A client must send its complete
// request headers within readHeaderTimeout, so a connection that trickles
// or never finishes them is cut rather than held open forever; an idle
// keep-alive connection is closed after idleTimeout. Request bodies and
// responses are not bounded here: large inline graphs legitimately upload
// slowly, and solves carry their own deadline_ms.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// splitCSV splits a comma-separated list, trimming whitespace and dropping
// empty entries.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run wires flags into a server and serves until a signal or until ready
// (a test channel) is told to stop. ready, when non-nil, receives the bound
// address once the listener is up.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("maxisd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 4, "scheduler worker pool size")
		solveWorkers = fs.Int("solve-workers", 1, "goroutines stepping nodes per solve (1 = inline; graphs under 64 nodes run inline)")
		queueDepth   = fs.Int("queue", 256, "per-priority submission queue depth")
		cacheBytes   = fs.Int64("cache-bytes", 64<<20, "result cache byte budget (negative disables)")
		rate         = fs.Float64("rate", 0, "token-bucket admission rate in req/s (0 = unlimited)")
		burst        = fs.Int("burst", 0, "token-bucket burst (default 2×rate)")
		shedDepth    = fs.Int("shed-depth", 0, "queue depth beyond which requests degrade to the greedy tier (default queue/2)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		restarts     = fs.Int("restart-budget", 32, "worker restarts beyond which /readyz degrades (negative disables)")
		journal      = fs.String("journal", "", "write-ahead journal path for graph mutations and accepted async jobs (empty disables)")
		repairEvery  = fs.Duration("repair-interval", 0, "background repair tier tick interval (0 = default 50ms)")
		repairBudget = fs.Int("repair-budget", 0, "re-admission examinations per repair tick (0 = default 4096)")
		chaosSpec    = fs.String("chaos", "", "chaos schedule, e.g. seed=7,err=0.05,latency=0.1:20ms,panic-every=40 (empty disables)")
		planOpsPerMS = fs.Int64("plan-ops-per-ms", 0, "planner work-unit throughput for alg=auto deadline budgets (0 = default)")
		clusterMode  = fs.Bool("cluster", false, "front a backend fleet: fan solves out over -backends via POST /v1/cluster/solve")
		backendsCSV  = fs.String("backends", "", "comma-separated backend base URLs for -cluster, e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
		partitions   = fs.Int("partitions", 0, "parts per fanned-out cluster solve (0 = backend count)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 1 || *solveWorkers < 1 || *queueDepth < 1 {
		fmt.Fprintln(stderr, "maxisd: -workers, -solve-workers and -queue must be positive")
		return 1
	}
	if *repairEvery < 0 || *repairBudget < 0 {
		fmt.Fprintln(stderr, "maxisd: -repair-interval and -repair-budget must be non-negative")
		return 1
	}
	if *clusterMode && *backendsCSV == "" {
		fmt.Fprintln(stderr, "maxisd: -cluster requires -backends")
		return 1
	}
	if !*clusterMode && (*backendsCSV != "" || *partitions != 0) {
		fmt.Fprintln(stderr, "maxisd: -backends and -partitions require -cluster")
		return 1
	}
	if *partitions < 0 {
		fmt.Fprintln(stderr, "maxisd: -partitions must be non-negative")
		return 1
	}
	var injector *chaos.Injector
	if *chaosSpec != "" {
		sched, err := chaos.ParseSchedule(*chaosSpec)
		if err != nil {
			fmt.Fprintf(stderr, "maxisd: -chaos: %v\n", err)
			return 1
		}
		injector = chaos.NewInjector(sched)
		fmt.Fprintf(stdout, "maxisd: chaos injection armed (%s)\n", sched.String())
	}

	opts := server.Options{
		Workers:         *workers,
		SolveWorkers:    *solveWorkers,
		QueueDepth:      *queueDepth,
		CacheBytes:      *cacheBytes,
		Rate:            *rate,
		Burst:           *burst,
		ShedDepth:       *shedDepth,
		PlannerOpsPerMS: *planOpsPerMS,
		DrainTimeout:    *drainTimeout,
		RestartBudget:   *restarts,
		Chaos:           injector,
		RepairInterval:  *repairEvery,
		RepairBudget:    *repairBudget,
	}
	var coord *cluster.Coordinator
	if *clusterMode {
		backends := splitCSV(*backendsCSV)
		var err error
		coord, err = cluster.New(backends, cluster.Options{Partitions: *partitions})
		if err != nil {
			fmt.Fprintf(stderr, "maxisd: cluster: %v\n", err)
			return 1
		}
		opts.Cluster = coord.Handler()
		opts.ClusterMetrics = coord.WriteMetrics
		coord.Start()
		defer coord.Stop()
		fmt.Fprintf(stdout, "maxisd: cluster front tier armed (%d backends)\n", len(backends))
	}
	s := server.New(opts)
	if *journal != "" {
		recovered, replayed, err := s.OpenJournal(*journal)
		if err != nil {
			fmt.Fprintf(stderr, "maxisd: journal: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "maxisd: journal %s open, recovered %d jobs, replayed %d mutations\n", *journal, recovered, replayed)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	// SIGINT and SIGTERM are deliberately identical — ^C in a terminal and a
	// supervisor's stop must drain the same way. A plain Notify (rather than
	// NotifyContext) keeps the signal value so the drain log names it.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	errCh := make(chan error, 1)
	ln, err := newListener(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "maxisd: listen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "maxisd: serving on %s (workers=%d cache=%dB rate=%g)\n",
		ln.Addr(), *workers, *cacheBytes, *rate)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "maxisd: shutdown signal received (%v), draining\n", sig)
	case err := <-errCh:
		fmt.Fprintf(stderr, "maxisd: serve: %v\n", err)
		return 1
	}

	// Stop accepting at the service level first so /readyz flips and new
	// solves are rejected while the listener finishes in-flight handlers.
	s.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "maxisd: http shutdown: %v\n", err)
	}
	if err := s.Drain(); err != nil {
		fmt.Fprintf(stderr, "maxisd: %v\n", err)
		_ = s.Close()
		return 1
	}
	_ = s.Close()
	st := s.Stats()
	fmt.Fprintf(stdout, "maxisd: drained, exiting (done=%d expired=%d panics=%d restarts=%d recovered=%d)\n",
		st.JobsDone, st.JobsExpired, st.WorkerPanics, st.WorkerRestarts, st.JournalRecovered)
	return 0
}
