// Package cluster is the horizontally-scaled serving topology for maxisd:
// a coordinator that cuts a solve into partitions (internal/partition),
// fans the parts out to N backend maxisd workers over the fault-tolerant
// internal/server/client, reconciles cut-edge conflicts with the
// lower-weight-endpoint-withdraws repair rule (the local-ratio conflict
// monitor of internal/reliable, applied to exactly the edges no part
// solver saw), and fronts the whole fleet with a consistent-hash ring so
// repeat content routes to the backend already holding the cached answer.
//
// Correctness story, in order:
//
//  1. each part is solved independently — valid because MWIS solvers never
//     need edges they cannot see, so every part answer is independent
//     within its part;
//  2. the union of part answers can conflict only on cut edges; for each,
//     the endpoint graph.Before ranks later (the lighter one, ties to the
//     higher identifier) withdraws, restoring independence;
//  3. a re-admission pass in graph.WeightOrder makes the set maximal again
//     (withdrawals can strand admissible nodes);
//  4. the answer is verified independent against the full graph and
//     floored against the coordinator-local degraded greedy tier: the
//     published set is never lighter than what one saturated node would
//     have answered, making sharding a strict availability upgrade.
//
// Backend death is detected two ways: a failed part solve (after the
// client's own retries) marks the backend dead immediately and fails the
// part over along the ring's clockwise sequence, and a background prober
// polls /readyz to both confirm deaths and resurrect recovered nodes,
// rebalancing the ring on every membership change.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/partition"
	"distmwis/internal/server"
	"distmwis/internal/server/client"
)

// Options tunes a Coordinator. The zero value is usable.
type Options struct {
	// Partitions is the part count per fan-out solve (default: the backend
	// count).
	Partitions int
	// Client configures the per-backend fault-tolerant clients.
	Client client.Options
	// ProbeInterval is the /readyz poll cadence (default 250ms; negative
	// disables the prober — tests drive ProbeOnce directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default 1s).
	ProbeTimeout time.Duration
}

// minFanoutNodes is the graph size below which the coordinator skips
// partitioning and routes the whole request to the ring owner of its
// content key — fan-out overhead beats solve time on small graphs, and
// whole-graph routing keeps their cache locality.
const minFanoutNodes = 64

func (o Options) withDefaults(backends int) Options {
	if o.Partitions <= 0 {
		o.Partitions = backends
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	return o
}

// backend is one maxisd worker: its base URL, its retrying client and its
// liveness flag (optimistically true until a probe or a solve says
// otherwise).
type backend struct {
	name  string
	cl    *client.Client
	alive atomic.Bool
}

// Coordinator fans solves out over a backend fleet. Concurrency-safe.
type Coordinator struct {
	opts     Options
	backends []*backend
	byName   map[string]*backend
	ring     *Ring
	probeC   *http.Client

	mu       sync.Mutex // guards ring rebuilds on membership changes
	stopCh   chan struct{}
	stopOnce sync.Once
	started  bool

	solves      atomic.Int64
	partitioned atomic.Int64
	wholeGraph  atomic.Int64
	partSolves  atomic.Int64
	reroutes    atomic.Int64
	localParts  atomic.Int64
	fallbacks   atomic.Int64
	conflicts   atomic.Int64
	withdrawn   atomic.Int64
	readmitted  atomic.Int64
	floorWins   atomic.Int64
	idSeq       atomic.Int64

	// fanoutOverheadUS is an EWMA (α = 1/8) of the fan-out overhead per
	// partitioned solve — total wall time minus the slowest part's solve
	// time, in microseconds. Per-part deadlines are the request deadline
	// minus this estimate, so backends plan against the time they will
	// actually get, not the time the client granted the coordinator.
	fanoutOverheadUS atomic.Int64

	// Partition-quality gauges, refreshed by every partitioned solve: how
	// many edges the cut crossed, and the max/mean imbalance of part node
	// counts and part weights (×1000, so 1000 = perfectly balanced).
	lastCutEdges            atomic.Int64
	lastPartSizeImbalance   atomic.Int64
	lastPartWeightImbalance atomic.Int64
	cutEdgesTotal           atomic.Int64
}

// Stats is a point-in-time snapshot of the coordinator counters.
type Stats struct {
	Solves        int64 // cluster solves handled
	Partitioned   int64 // solves that fanned out over a partition
	WholeGraph    int64 // solves routed whole to one backend
	PartSolves    int64 // part solves sent to backends
	Reroutes      int64 // part/whole solves failed over past a backend
	LocalParts    int64 // parts answered by the coordinator's degraded tier
	Fallbacks     int64 // whole solves answered locally (no backend alive)
	Conflicts     int64 // cut-edge conflicts found during reconciliation
	Withdrawn     int64 // nodes withdrawn by the repair rule
	Readmitted    int64 // nodes re-admitted after reconciliation
	FloorWins     int64 // answers where the degraded floor beat the merge
	BackendsAlive int
	BackendsTotal int

	// FanoutOverheadUS is the EWMA fan-out overhead estimate (µs) deducted
	// from per-part deadlines.
	FanoutOverheadUS int64
	// CutEdgesTotal accumulates cut edges over all partitioned solves;
	// LastCutEdges and the imbalance gauges describe the most recent one
	// (imbalance = max part / mean part, ×1000).
	CutEdgesTotal           int64
	LastCutEdges            int64
	LastPartSizeImbalance   int64
	LastPartWeightImbalance int64
}

// New builds a Coordinator over the given backend base URLs (e.g.
// "http://127.0.0.1:8081"). Call Start to run the readiness prober.
func New(backends []string, opts Options) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one backend required")
	}
	opts = opts.withDefaults(len(backends))
	c := &Coordinator{
		opts:   opts,
		byName: make(map[string]*backend, len(backends)),
		ring:   NewRing(0),
		probeC: &http.Client{Timeout: opts.ProbeTimeout},
		stopCh: make(chan struct{}),
	}
	for _, name := range backends {
		if _, dup := c.byName[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %q", name)
		}
		b := &backend{name: name, cl: client.New(name, opts.Client)}
		b.alive.Store(true)
		c.backends = append(c.backends, b)
		c.byName[name] = b
	}
	c.rebuildRing()
	return c, nil
}

// Start launches the background readiness prober. Idempotent.
func (c *Coordinator) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.opts.ProbeInterval < 0 {
		c.started = true
		return
	}
	c.started = true
	go func() {
		tick := time.NewTicker(c.opts.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.ProbeOnce(context.Background())
			case <-c.stopCh:
				return
			}
		}
	}()
}

// Stop halts the prober. Idempotent; safe before Start.
func (c *Coordinator) Stop() { c.stopOnce.Do(func() { close(c.stopCh) }) }

// ProbeOnce polls every backend's /readyz once and rebalances the ring on
// membership changes. A dead backend whose /readyz answers 200 again is
// resurrected — crash recovery rejoins the fleet without operator action.
func (c *Coordinator) ProbeOnce(ctx context.Context) {
	changed := false
	for _, b := range c.backends {
		alive := c.probeReady(ctx, b.name)
		if b.alive.Swap(alive) != alive {
			changed = true
		}
	}
	if changed {
		c.mu.Lock()
		c.rebuildRing()
		c.mu.Unlock()
	}
}

func (c *Coordinator) probeReady(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.probeC.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// markDead records a backend failure observed in the solve path and
// rebalances immediately — the prober will confirm (or revert) later.
func (c *Coordinator) markDead(b *backend) {
	if b.alive.Swap(false) {
		c.mu.Lock()
		c.rebuildRing()
		c.mu.Unlock()
	}
}

// rebuildRing resets ring membership to the alive backends. Callers hold
// c.mu (or are in New, before concurrency starts).
func (c *Coordinator) rebuildRing() {
	alive := make([]string, 0, len(c.backends))
	for _, b := range c.backends {
		if b.alive.Load() {
			alive = append(alive, b.name)
		}
	}
	c.ring.Set(alive)
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	alive := 0
	for _, b := range c.backends {
		if b.alive.Load() {
			alive++
		}
	}
	return Stats{
		Solves:        c.solves.Load(),
		Partitioned:   c.partitioned.Load(),
		WholeGraph:    c.wholeGraph.Load(),
		PartSolves:    c.partSolves.Load(),
		Reroutes:      c.reroutes.Load(),
		LocalParts:    c.localParts.Load(),
		Fallbacks:     c.fallbacks.Load(),
		Conflicts:     c.conflicts.Load(),
		Withdrawn:     c.withdrawn.Load(),
		Readmitted:    c.readmitted.Load(),
		FloorWins:     c.floorWins.Load(),
		BackendsAlive: alive,
		BackendsTotal: len(c.backends),

		FanoutOverheadUS:        c.fanoutOverheadUS.Load(),
		CutEdgesTotal:           c.cutEdgesTotal.Load(),
		LastCutEdges:            c.lastCutEdges.Load(),
		LastPartSizeImbalance:   c.lastPartSizeImbalance.Load(),
		LastPartWeightImbalance: c.lastPartWeightImbalance.Load(),
	}
}

// PartReport is the provenance of one partition within a cluster answer.
type PartReport struct {
	Part    int    `json:"part"`
	Backend string `json:"backend,omitempty"`
	// GraphHash is the part subgraph's content hash — the routing key, and
	// (for whole-component parts) the PR 8 component fingerprint.
	GraphHash string `json:"graph_hash"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Size      int    `json:"size"`
	Weight    int64  `json:"weight"`
	Cached    bool   `json:"cached,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
	// Rerouted reports the part was solved by a non-primary backend after
	// its ring owner failed; Local reports the coordinator's own degraded
	// tier answered because no backend could.
	Rerouted bool `json:"rerouted,omitempty"`
	Local    bool `json:"local,omitempty"`
}

// Response is the body of POST /v1/cluster/solve: a SolveResponse plus the
// sharding provenance.
type Response struct {
	server.SolveResponse
	// Parts is per-partition provenance, ascending part index.
	Parts []PartReport `json:"parts,omitempty"`
	// CutEdges/Conflicts/Withdrawn/Readmitted summarise reconciliation:
	// how many edges crossed parts, how many carried a conflict, and the
	// repair traffic both ways.
	CutEdges   int `json:"cut_edges"`
	Conflicts  int `json:"conflicts"`
	Withdrawn  int `json:"withdrawn"`
	Readmitted int `json:"readmitted"`
	// Verified reports the final set passed a full-graph independence
	// check on the coordinator (always true for a "done" answer).
	Verified bool `json:"verified,omitempty"`
	// Floor reports the coordinator-local degraded greedy answer
	// outweighed the reconciled merge and was returned instead — the
	// never-worse-than-one-node guarantee firing.
	Floor bool `json:"floor,omitempty"`
}

// RequestError marks a caller mistake (HTTP 400).
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Solve runs one cluster solve: partition, fan out, reconcile, verify.
func (c *Coordinator) Solve(ctx context.Context, req *server.SolveRequest) (Response, error) {
	start := time.Now()
	if err := req.Normalize(); err != nil {
		return Response{}, badRequest("%v", err)
	}
	switch {
	case req.GraphRef != "":
		return Response{}, badRequest("cluster solves do not support graph_ref: dynamic handles live on individual backends")
	case req.Async:
		return Response{}, badRequest("cluster solves are synchronous")
	case req.Fault != nil:
		return Response{}, badRequest("cluster solves do not support fault schedules: a schedule is defined against one graph's node count, not its partitions")
	}
	g, err := req.BuildGraph()
	if err != nil {
		return Response{}, badRequest("graph: %v", err)
	}
	// The canonical form is built once per solve: it names the graph in the
	// response and the routing key, and the whole-graph route sends it.
	canon := req.CanonicalForm(g)
	hash := graph.HashCanonical(canon)
	c.solves.Add(1)
	id := fmt.Sprintf("cl-%d", c.idSeq.Add(1))
	finish := func(resp Response) Response {
		resp.ID = id
		resp.GraphHash = hash
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		return resp
	}

	if c.ring.Size() == 0 {
		// Every backend is dead: the front tier degrades exactly like a
		// saturated single node — the local greedy tier answers, marked
		// degraded, rather than failing the request.
		return finish(c.localWhole(g, hash)), nil
	}

	if g.N() < minFanoutNodes || c.opts.Partitions <= 1 || req.Degraded {
		resp, err := c.solveWhole(ctx, req, g, canon, hash)
		if err != nil {
			return Response{}, err
		}
		return finish(resp), nil
	}
	resp, err := c.solvePartitioned(ctx, req, g)
	if err != nil {
		return Response{}, err
	}
	return finish(resp), nil
}

// localWhole answers the whole graph from the coordinator's own degraded
// tier, for when no backend can.
func (c *Coordinator) localWhole(g *graph.Graph, hash string) Response {
	c.fallbacks.Add(1)
	set, weight := g.Greedy()
	return Response{
		SolveResponse: server.SolveResponse{
			Status:   "done",
			Set:      graph.Members(set),
			Size:     graph.SetSize(set),
			Weight:   weight,
			Degraded: true,
		},
		Parts:    []PartReport{{Part: 0, GraphHash: hash, N: g.N(), M: g.M(), Size: graph.SetSize(set), Weight: weight, Degraded: true, Local: true}},
		Verified: true,
	}
}

// solveWhole routes the unpartitioned request to the ring owner of its
// content key, failing over clockwise; repeat graphs therefore land on the
// node whose cache already holds the answer. An inline graph travels as
// its canonical bytes canon; a gen spec travels as the spec, so the
// backend's spec memo keeps answering repeats without a rebuild.
func (c *Coordinator) solveWhole(ctx context.Context, req *server.SolveRequest, g *graph.Graph, canon []byte, hash string) (Response, error) {
	c.wholeGraph.Add(1)
	wreq := *req
	if wreq.Gen == nil {
		wreq.Graph, wreq.Canonical = nil, canon
	}
	resp, backendName, rerouted, err := c.solveOn(ctx, hash+"|"+req.Fingerprint(), wreq)
	if err != nil {
		// No backend could answer; degrade locally rather than fail.
		return c.localWhole(g, hash), nil
	}
	if err := checkHash(backendName, resp.GraphHash, hash); err != nil {
		return Response{}, err
	}
	out := Response{SolveResponse: resp}
	out.Parts = []PartReport{{
		Part: 0, Backend: backendName, GraphHash: hash,
		N: g.N(), M: g.M(), Size: resp.Size, Weight: resp.Weight,
		Cached: resp.Cached, Degraded: resp.Degraded, Rerouted: rerouted,
	}}
	if resp.Status == "done" {
		out.Verified = g.IsIndependentSet(graph.FromMembers(resp.Set, g.N()))
	}
	return out, nil
}

// partOutcome is one partition's solve result during fan-out.
type partOutcome struct {
	report   PartReport
	set      []int32 // part-local indices
	rounds   int
	messages int64
	bits     int64
	elapsed  time.Duration
	err      error
}

// recordPartitionQuality refreshes the partition-quality gauges from one
// Split result: cut-edge count and the max/mean imbalance of part node
// counts and part weights (×1000).
func (c *Coordinator) recordPartitionQuality(part *partition.Partition) {
	c.cutEdgesTotal.Add(int64(len(part.CutEdges)))
	c.lastCutEdges.Store(int64(len(part.CutEdges)))
	var totalN, maxN, totalW, maxW int64
	for _, sub := range part.Parts {
		pn := int64(sub.G.N())
		var pw int64
		for v := 0; v < sub.G.N(); v++ {
			pw += sub.G.Weight(v)
		}
		totalN += pn
		totalW += pw
		if pn > maxN {
			maxN = pn
		}
		if pw > maxW {
			maxW = pw
		}
	}
	k := int64(len(part.Parts))
	if k > 0 && totalN > 0 {
		c.lastPartSizeImbalance.Store(maxN * k * 1000 / totalN)
	}
	if k > 0 && totalW > 0 {
		c.lastPartWeightImbalance.Store(maxW * k * 1000 / totalW)
	}
}

// partDeadline budgets one part's DeadlineMS: the request deadline minus
// the EWMA fan-out overhead, floored at 1ms so a nearly-spent deadline
// still reaches the backend (whose planner will pick its cheapest solver)
// instead of silently becoming unlimited.
func (c *Coordinator) partDeadline(reqDeadlineMS int64) int64 {
	if reqDeadlineMS <= 0 {
		return 0
	}
	d := reqDeadlineMS - c.fanoutOverheadUS.Load()/1000
	if d < 1 {
		d = 1
	}
	return d
}

// observeFanout folds one partitioned solve's overhead — total wall time
// minus the slowest part — into the EWMA (α = 1/8).
func (c *Coordinator) observeFanout(total, maxPart time.Duration) {
	overhead := (total - maxPart).Microseconds()
	if overhead < 0 {
		overhead = 0
	}
	prev := c.fanoutOverheadUS.Load()
	c.fanoutOverheadUS.Store(prev + (overhead-prev)/8)
}

// solvePartitioned fans the solve out over an edge-cut partition and
// reconciles the merged answer.
func (c *Coordinator) solvePartitioned(ctx context.Context, req *server.SolveRequest, g *graph.Graph) (Response, error) {
	part, err := partition.Split(g, partition.Options{Parts: c.opts.Partitions})
	if err != nil {
		return Response{}, badRequest("partition: %v", err)
	}
	c.partitioned.Add(1)
	c.recordPartitionQuality(part)

	fanoutStart := time.Now()
	partDeadlineMS := c.partDeadline(req.DeadlineMS)
	outcomes := make([]partOutcome, part.K)
	var wg sync.WaitGroup
	for i := 0; i < part.K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = c.solvePart(ctx, req, part.Parts[i], i, partDeadlineMS)
		}(i)
	}
	wg.Wait()
	var maxPart time.Duration
	for i := range outcomes {
		if outcomes[i].elapsed > maxPart {
			maxPart = outcomes[i].elapsed
		}
	}
	c.observeFanout(time.Since(fanoutStart), maxPart)

	resp := Response{CutEdges: len(part.CutEdges)}
	n := g.N()
	merged := make([]bool, n)
	var rounds int
	var messages, bits int64
	anyDegraded := false
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return Response{}, fmt.Errorf("part %d: %w", i, o.err)
		}
		sub := part.Parts[i]
		for _, v := range o.set {
			if int(v) < 0 || int(v) >= len(sub.ToParent) {
				return Response{}, fmt.Errorf("part %d: backend returned out-of-range member %d", i, v)
			}
			merged[sub.ToParent[v]] = true
		}
		anyDegraded = anyDegraded || o.report.Degraded
		resp.Parts = append(resp.Parts, o.report)
		rounds += o.rounds
		messages += o.messages
		bits += o.bits
	}

	// Reconcile: only cut edges can conflict; on each, the endpoint
	// graph.Before ranks later withdraws, as in reliable.Repair. Ascending
	// scan order + immediate application makes the outcome deterministic.
	for _, e := range part.CutEdges {
		if g.Withdraw(merged, int(e[0]), int(e[1])) >= 0 {
			resp.Conflicts++
			resp.Withdrawn++
		}
	}
	// Re-admission: withdrawals can leave admissible nodes stranded (all
	// their set neighbours withdrew). One pass in the weight order restores
	// maximality without ever breaking independence; the floor below
	// reuses the same order.
	order := g.WeightOrder()
	_, resp.Readmitted = g.Extend(merged, order, 0, n)
	c.conflicts.Add(int64(resp.Conflicts))
	c.withdrawn.Add(int64(resp.Withdrawn))
	c.readmitted.Add(int64(resp.Readmitted))

	weight := g.SetWeight(merged)
	// The availability floor: never answer lighter than the single-node
	// degraded tier would. The greedy answer (graph.Greedy, built here
	// from the shared order) is deterministic and cheap; the merge must
	// strictly beat it to be published.
	floorSet := make([]bool, n)
	g.Extend(floorSet, order, 0, n)
	if floorWeight := g.SetWeight(floorSet); floorWeight > weight {
		merged = floorSet
		weight = floorWeight
		resp.Floor = true
		c.floorWins.Add(1)
	}
	if !g.IsIndependentSet(merged) {
		// Unreachable by construction (reconciliation restores independence,
		// re-admission preserves it, the floor set is independent); refuse to
		// publish rather than serve a conflicted set.
		return Response{}, fmt.Errorf("cluster: reconciled set failed independence verification")
	}
	resp.Verified = true
	resp.Status = "done"
	resp.Set = graph.Members(merged)
	resp.Size = graph.SetSize(merged)
	resp.Weight = weight
	resp.Rounds = rounds
	resp.Messages = messages
	resp.Bits = bits
	resp.Degraded = anyDegraded
	return resp, nil
}

// solvePart solves one partition on its ring owner, failing over clockwise
// and degrading to a coordinator-local greedy answer when no backend can.
// deadlineMS is the budgeted per-part deadline (see partDeadline) — tighter
// than the request's, so an alg=auto part re-plans against the time left
// after fan-out overhead.
func (c *Coordinator) solvePart(ctx context.Context, req *server.SolveRequest, sub *graph.Subgraph, idx int, deadlineMS int64) partOutcome {
	partStart := time.Now()
	// The part travels as the canonical bytes it is hashed from.
	canon := sub.G.Canonical()
	hash := graph.HashCanonical(canon)
	report := PartReport{Part: idx, GraphHash: hash, N: sub.G.N(), M: sub.G.M()}

	preq := server.SolveRequest{
		Canonical:       canon,
		Alg:             req.Alg,
		Eps:             req.Eps,
		Alpha:           req.Alpha,
		Seed:            req.Seed,
		MIS:             req.MIS,
		Priority:        req.Priority,
		DeadlineMS:      deadlineMS,
		NoCache:         req.NoCache,
		Reliable:        req.Reliable,
		CheckpointEvery: req.CheckpointEvery,
		Repair:          req.Repair,
	}
	c.partSolves.Add(1)
	resp, backendName, rerouted, err := c.solveOn(ctx, hash+"|"+req.Fingerprint(), preq)
	if err == nil {
		if err := checkHash(backendName, resp.GraphHash, hash); err != nil {
			return partOutcome{err: err, elapsed: time.Since(partStart)}
		}
		report.Backend = backendName
		report.Rerouted = rerouted
		report.Cached = resp.Cached
		report.Degraded = resp.Degraded
		report.Size = resp.Size
		report.Weight = resp.Weight
		return partOutcome{report: report, set: resp.Set,
			rounds: resp.Rounds, messages: resp.Messages, bits: resp.Bits,
			elapsed: time.Since(partStart)}
	}
	var reqErr *RequestError
	if errors.As(err, &reqErr) {
		return partOutcome{err: err, elapsed: time.Since(partStart)}
	}
	// Every backend failed this part: answer it from the local degraded
	// tier so one part's bad luck does not fail the whole solve.
	set, weight := sub.G.Greedy()
	c.localParts.Add(1)
	report.Local = true
	report.Degraded = true
	report.Size = graph.SetSize(set)
	report.Weight = weight
	return partOutcome{report: report, set: graph.Members(set), elapsed: time.Since(partStart)}
}

// solveOn routes one request along the ring sequence for key: the owner
// first, then clockwise failover. Transient failures (after the client's
// own retries) mark the backend dead and move on; terminal errors are the
// request's own fault and abort. Returns the answering backend and whether
// it was a non-primary.
func (c *Coordinator) solveOn(ctx context.Context, key string, req server.SolveRequest) (server.SolveResponse, string, bool, error) {
	seq := c.ring.Sequence(key)
	var lastErr error
	tried := 0
	for _, name := range seq {
		b := c.byName[name]
		if b == nil || !b.alive.Load() {
			continue
		}
		resp, err := b.cl.Solve(ctx, req)
		if err == nil {
			switch resp.Status {
			case "done":
				return resp, name, tried > 0, nil
			case "deadline":
				return resp, name, false, fmt.Errorf("backend %s: deadline: %s", name, resp.Error)
			default:
				return resp, name, false, fmt.Errorf("backend %s: solve %s: %s", name, resp.Status, resp.Error)
			}
		}
		if !client.Retryable(err) || ctx.Err() != nil {
			// The request itself is bad (4xx) or the caller gave up — no
			// backend will answer it differently.
			return server.SolveResponse{}, name, false, &RequestError{msg: err.Error()}
		}
		lastErr = err
		tried++
		c.reroutes.Add(1)
		c.markDead(b)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no alive backend for key")
	}
	return server.SolveResponse{}, "", false, lastErr
}

// checkHash rejects an answer for a graph other than the one sent: the
// backend's graph_hash must be the hash of the canonical bytes the
// coordinator shipped, or the set indexes some other graph's nodes.
func checkHash(backend, got, want string) error {
	if got != want {
		return fmt.Errorf("backend %s answered for graph %s, sent %s", backend, got, want)
	}
	return nil
}
