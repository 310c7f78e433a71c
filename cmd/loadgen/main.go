// Command loadgen is a closed-loop load generator for maxisd. It drives a
// target request rate from a fixed worker pool over a mix of seeded
// generator graphs, reuses a bounded seed pool to exercise the result
// cache, and reports throughput plus p50/p95/p99 latency.
//
// Requests go through the fault-tolerant internal/server/client: retries
// with backoff, optional hedging, and a circuit breaker that falls back to
// the degraded tier. The final report counts that activity, and -slo turns
// the run into an availability assertion: exit non-zero when the success
// ratio misses the target.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -rps 1000 -concurrency 32 \
//	        -duration 10s -repeat 0.9 -graphs gnp,cycle,tree -n 200 \
//	        -retries 2 -breaker 8 -slo 0.99
//
// With -mutate F in (0,1], the workload switches to the dynamic-graph API:
// one seeded graph is PUT as a shared handle, an F fraction of requests
// PATCH it with deterministic mutation batches, and the rest solve it by
// graph_ref — reads racing writes through cache invalidation and healing.
// The report then breaks latency percentiles out per op type (solve vs
// patch).
//
// With -targets U1,U2,... the generator drives a whole backend fleet:
// each request routes over a consistent-hash ring keyed by its graph-spec
// identity — the same discipline the cluster front tier uses — so repeat
// content exercises per-backend caches instead of smearing across the
// fleet. Mutation traffic (-mutate) stays pinned to the first target,
// since dynamic handles are per-node state.
//
// Without -slo the exit code is non-zero if any request failed, which
// makes a short loadgen burst a usable CI smoke assertion.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distmwis/internal/chaos"
	"distmwis/internal/cluster"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/server"
	"distmwis/internal/server/client"
	"distmwis/internal/stats"
)

type tally struct {
	sent, ok, failed, cached, shared, degraded, mutations atomic.Int64

	mu        sync.Mutex
	latencies map[string][]float64 // op type → seconds
}

func (t *tally) observe(op string, seconds float64) {
	t.mu.Lock()
	if t.latencies == nil {
		t.latencies = make(map[string][]float64)
	}
	t.latencies[op] = append(t.latencies[op], seconds)
	t.mu.Unlock()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "http://localhost:8080", "maxisd base URL")
		targets     = fs.String("targets", "", "comma-separated maxisd base URLs; overrides -addr and routes each request over a consistent-hash ring, mirroring the cluster front tier")
		rps         = fs.Float64("rps", 500, "target request rate (0 = as fast as the loop allows)")
		concurrency = fs.Int("concurrency", 16, "closed-loop worker count")
		duration    = fs.Duration("duration", 10*time.Second, "run length")
		repeat      = fs.Float64("repeat", 0.9, "fraction of requests drawn from the repeated-seed pool (cache exercise)")
		poolSize    = fs.Int("pool", 8, "size of the repeated-seed pool")
		graphs      = fs.String("graphs", "gnp,cycle,tree", "comma-separated generator mix")
		n           = fs.Int("n", 150, "nodes per generated graph")
		p           = fs.Float64("p", 0.05, "gnp edge probability")
		weights     = fs.String("weights", "poly2", "weight family for generated graphs")
		alg         = fs.String("alg", "goodnodes", "algorithm to request")
		batchFrac   = fs.Float64("batch", 0, "fraction of requests submitted at batch priority")
		seed        = fs.Uint64("seed", 1, "load-generator randomness seed")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-attempt HTTP timeout")
		retries     = fs.Int("retries", 2, "retries per request after the first attempt (-1 disables)")
		hedge       = fs.Duration("hedge", 0, "hedge a request after this delay (0 = off)")
		breaker     = fs.Int("breaker", 8, "consecutive failures that open the circuit breaker (0 = off)")
		cooldown    = fs.Duration("breaker-cooldown", time.Second, "open-breaker cooldown before a probe")
		slo         = fs.Float64("slo", 0, "required success ratio in (0,1]; 0 keeps the legacy any-failure exit")
		mutate      = fs.Float64("mutate", 0, "fraction of requests that PATCH a shared dynamic graph handle (0 = static workload)")
		mutateOps   = fs.Int("mutate-ops", 4, "edge/weight operations per mutation PATCH")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *concurrency < 1 {
		fmt.Fprintln(stderr, "loadgen: -concurrency must be positive")
		return 1
	}
	if *repeat < 0 || *repeat > 1 || *batchFrac < 0 || *batchFrac > 1 {
		fmt.Fprintln(stderr, "loadgen: -repeat and -batch must be in [0,1]")
		return 1
	}
	if *slo < 0 || *slo > 1 {
		fmt.Fprintln(stderr, "loadgen: -slo must be in [0,1]")
		return 1
	}
	if *mutate < 0 || *mutate > 1 {
		fmt.Fprintln(stderr, "loadgen: -mutate must be in [0,1]")
		return 1
	}
	if *mutate > 0 && *mutateOps < 1 {
		fmt.Fprintln(stderr, "loadgen: -mutate-ops must be positive")
		return 1
	}
	kinds := strings.Split(*graphs, ",")
	for i := range kinds {
		kinds[i] = strings.TrimSpace(kinds[i])
	}

	// One retrying client per target. With -targets, requests route over
	// the same consistent-hash discipline the cluster front tier uses, so
	// repeat content lands on the backend whose cache already holds it.
	bases := []string{*addr}
	if *targets != "" {
		bases = bases[:0]
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				bases = append(bases, u)
			}
		}
		if len(bases) == 0 {
			fmt.Fprintln(stderr, "loadgen: -targets holds no URLs")
			return 1
		}
	}
	clients := make(map[string]*client.Client, len(bases))
	for _, base := range bases {
		clients[base] = client.New(base, client.Options{
			Timeout:          *timeout,
			MaxRetries:       *retries,
			HedgeAfter:       *hedge,
			Seed:             *seed,
			BreakerThreshold: *breaker,
			BreakerCooldown:  *cooldown,
		})
	}
	ring := cluster.NewRing(128)
	ring.Set(bases)
	pick := func(key string) *client.Client {
		member, _ := ring.Lookup(key) // ring is never empty here
		return clients[member]
	}
	// Mutation traffic pins to one backend: the shared handle lives where
	// it was PUT, and handles are per-node state, not fleet state.
	cl := clients[bases[0]]
	var t tally
	// Dynamic-graph mode: all traffic targets one shared handle — the
	// -mutate fraction PATCHes it with deterministic chaos storm batches,
	// the rest solve it by reference. The original PUT hash keeps resolving
	// through every mutation (handle aliasing), so workers never coordinate
	// on the moving content hash.
	var refHash string
	var storm *chaos.Injector
	var stormSeq atomic.Int64
	if *mutate > 0 {
		g, err := gen.Spec{Kind: "gnp", N: *n, P: *p, Weights: "poly2", Seed: *seed}.Build()
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: seed graph: %v\n", err)
			return 1
		}
		var doc bytes.Buffer
		if err := g.WriteJSON(&doc); err != nil {
			fmt.Fprintf(stderr, "loadgen: encode seed graph: %v\n", err)
			return 1
		}
		put, err := cl.PutGraph(context.Background(), doc.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: PUT seed graph: %v\n", err)
			return 1
		}
		refHash = put.Hash
		storm = chaos.NewInjector(chaos.Schedule{Seed: *seed, StormEvery: 1, StormOps: *mutateOps})
	}
	// Rate pacing: a token channel fed at the target rate. Closed-loop:
	// when the server lags, tokens back up to the channel bound and the
	// offered rate drops instead of piling unbounded requests.
	var tokens chan struct{}
	stopFill := make(chan struct{})
	if *rps > 0 {
		// Sub-millisecond tickers lose ticks under load, so pace in batches:
		// tick no faster than every 2ms and emit enough tokens per tick to
		// hold the target rate.
		interval := time.Duration(float64(time.Second) / *rps)
		batch := 1
		if minTick := 2 * time.Millisecond; interval < minTick {
			batch = int(math.Ceil(float64(minTick) / float64(interval)))
			interval = time.Duration(float64(time.Second) * float64(batch) / *rps)
		}
		tokens = make(chan struct{}, *concurrency+batch)
		for i := 0; i < batch; i++ {
			tokens <- struct{}{} // prime one batch so the ramp doesn't undershoot
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			begin := time.Now()
			issued := int64(batch)
			// After a stall (GC pause, server hiccup, laptop sleep) the
			// drift-corrected top-up would otherwise dump the entire missed
			// backlog at once; cap the catch-up burst so recovery ramps at a
			// bounded multiple of the steady-state batch instead of hammering
			// a server that just came back.
			maxBurst := int64(2 * batch)
			for {
				select {
				case <-tick.C:
					// Time-based top-up rather than per-tick batches: ticker
					// drift would otherwise shave a few percent off the rate.
					due := int64(*rps*time.Since(begin).Seconds()) + int64(batch)
					if due-issued > maxBurst {
						issued = due - maxBurst // forgive the stalled backlog
					}
					for issued < due {
						select {
						case tokens <- struct{}{}:
							issued++
						default: // workers saturated; shed the backlog
							issued = due
						}
					}
				case <-stopFill:
					return
				}
			}
		}()
	}

	stop := make(chan struct{})
	time.AfterFunc(*duration, func() { close(stop) })
	var wg sync.WaitGroup
	var uniqueSeed atomic.Uint64
	uniqueSeed.Store(1_000_000) // disjoint from the repeated pool

	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(workerID int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(*seed, uint64(workerID)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tokens != nil {
					select {
					case <-tokens:
					case <-stop:
						return
					}
				}
				if refHash != "" {
					if rng.Float64() < *mutate {
						issuePatch(cl, refHash, stormEdit(storm.Storm(stormSeq.Add(1), *n)), &t)
					} else {
						req := server.SolveRequest{GraphRef: refHash, Alg: *alg, Seed: 1 + uint64(rng.IntN(*poolSize))}
						issue(cl, req, &t)
					}
					continue
				}
				req := server.SolveRequest{Alg: *alg}
				kind := kinds[rng.IntN(len(kinds))]
				gs := server.GenSpec{Kind: kind, N: *n, P: *p, Weights: *weights}
				if kind == "cycle" || kind == "path" || kind == "star" {
					gs.P = 0
				}
				if rng.Float64() < *repeat {
					gs.Seed = 1 + uint64(rng.IntN(*poolSize))
				} else {
					gs.Seed = uniqueSeed.Add(1)
				}
				req.Gen = &gs
				req.Seed = gs.Seed
				if rng.Float64() < *batchFrac {
					req.Priority = "batch"
				}
				// Route by the content key (spec identity) so repeats of a
				// pooled seed always hit the same backend's cache.
				issue(pick(fmt.Sprintf("%s|%d|%g|%s|%d", kind, gs.N, gs.P, gs.Weights, gs.Seed)), req, &t)
			}
		}(w)
	}
	wg.Wait()
	close(stopFill)
	elapsed := time.Since(start)

	var cs client.Stats
	for _, c := range clients {
		s := c.Stats()
		cs.Attempts += s.Attempts
		cs.Retries += s.Retries
		cs.Hedges += s.Hedges
		cs.BreakerOpens += s.BreakerOpens
		cs.Fallbacks += s.Fallbacks
	}
	report(stdout, &t, cs, elapsed)
	sent, failed := t.sent.Load(), t.failed.Load()
	if *slo > 0 {
		ratio := 0.0
		if sent > 0 {
			ratio = float64(t.ok.Load()) / float64(sent)
		}
		if ratio < *slo {
			fmt.Fprintf(stderr, "loadgen: SLO missed: success ratio %.4f < %.4f (%d requests failed)\n",
				ratio, *slo, failed)
			return 1
		}
		return 0
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "loadgen: %d requests failed\n", failed)
		return 1
	}
	return 0
}

func issue(cl *client.Client, req server.SolveRequest, t *tally) {
	t.sent.Add(1)
	reqStart := time.Now()
	resp, err := cl.Solve(context.Background(), req)
	if err != nil || resp.Status != "done" {
		t.failed.Add(1)
		return
	}
	t.observe("solve", time.Since(reqStart).Seconds())
	t.ok.Add(1)
	if resp.Cached {
		t.cached.Add(1)
	}
	if resp.Shared {
		t.shared.Add(1)
	}
	if resp.Degraded {
		t.degraded.Add(1)
	}
}

// issuePatch sends one mutation through the retrying client and books it
// under the "patch" latency label, keeping read and write tails separately
// visible in the report.
func issuePatch(cl *client.Client, hash string, edit graph.Edit, t *tally) {
	t.sent.Add(1)
	reqStart := time.Now()
	resp, err := cl.PatchGraph(context.Background(), hash, edit)
	if err != nil || resp.Error != "" {
		t.failed.Add(1)
		return
	}
	t.observe("patch", time.Since(reqStart).Seconds())
	t.ok.Add(1)
	t.mutations.Add(1)
}

// stormEdit maps a chaos storm batch onto the PATCH wire format.
func stormEdit(ops []chaos.MutationOp) graph.Edit {
	var e graph.Edit
	for _, op := range ops {
		switch op.Kind {
		case "add":
			e.AddEdges = append(e.AddEdges, [2]int32{op.U, op.V})
		case "remove":
			e.RemoveEdges = append(e.RemoveEdges, [2]int32{op.U, op.V})
		case "weight":
			e.Weights = append(e.Weights, graph.WeightUpdate{V: op.U, W: op.W})
		}
	}
	return e
}

func report(w io.Writer, t *tally, cs client.Stats, elapsed time.Duration) {
	t.mu.Lock()
	byOp := make(map[string][]float64, len(t.latencies))
	for op, lat := range t.latencies {
		byOp[op] = append([]float64(nil), lat...)
	}
	t.mu.Unlock()
	sent := t.sent.Load()
	fmt.Fprintf(w, "loadgen: %d requests in %.2fs → %.1f req/s\n",
		sent, elapsed.Seconds(), float64(sent)/elapsed.Seconds())
	fmt.Fprintf(w, "  ok=%d failed=%d cached=%d shared=%d degraded=%d mutations=%d\n",
		t.ok.Load(), t.failed.Load(), t.cached.Load(), t.shared.Load(), t.degraded.Load(), t.mutations.Load())
	fmt.Fprintf(w, "  client: retries=%d hedges=%d breaker_opens=%d fallbacks=%d\n",
		cs.Retries, cs.Hedges, cs.BreakerOpens, cs.Fallbacks)
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	if len(ops) == 0 {
		ops = append(ops, "solve") // an all-failure run still prints the line
		byOp["solve"] = nil
	}
	for _, op := range ops {
		lat := byOp[op]
		sort.Float64s(lat)
		ms := func(q float64) float64 {
			if len(lat) == 0 {
				return 0
			}
			return stats.Quantile(lat, q) * 1000
		}
		fmt.Fprintf(w, "  latency ms [%s]: p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
			op, ms(0.50), ms(0.95), ms(0.99), ms(1.0))
	}
}
