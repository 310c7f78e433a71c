// Package server is the MaxIS-as-a-service layer: a long-running daemon
// that turns the single-shot solvers of internal/maxis into a shared,
// observable, overload-safe HTTP service.
//
// Every solve — inline graph, gen spec, graph_ref, or a journal replay —
// crosses one pipeline, in this order:
//
//   - admit (server.go): a draining server answers 503; a token bucket
//     (admission.go) rejects traffic beyond the configured rate with 429.
//   - decode: the JSON body is parsed and normalized; a repeat gen spec
//     may short-circuit to its cached answer through the spec memo.
//   - build, plan, key (prepare): the graph is materialised (from JSON,
//     canonical bytes or a gen spec; a graph_ref resolves to its handle's
//     current snapshot, graphstore.go), alg=auto is resolved by the
//     planner, and the content-addressed cache key and graph hash are
//     computed from one canonical form and a config fingerprint.
//   - cache (cache.go): an LRU with a byte budget answers repeats.
//   - shed: explicit degraded requests, and all requests beyond a
//     queue-depth threshold, are answered by a host-side greedy
//     Δ+1-approximation (the cheap tier of Bar-Yehuda et al. [8]) and
//     marked degraded.
//   - single-flight and schedule (cache.go, scheduler.go): concurrent
//     identical requests collapse into one flight; the leader's solve
//     joins a bounded two-priority queue feeding a worker pool, with
//     per-job deadlines via context and a graceful drain on shutdown.
//   - solve: maxis.Solve, or for graph_ref maxis.SolveComponents over the
//     version's carried components, which answers cached components from
//     the cache, solves the rest in one run and returns Solve's set bit
//     for bit; the key stage gives both the same key.
//   - publish: the result is cached worker-side (a graph_ref result only
//     when it ran the whole graph, so the shared line holds a whole-graph
//     run's metrics); graph_ref answers are
//     also published to the answer registry (answers.go), and degraded
//     ones are queued for the background repair tier.
//   - encode: the response is written (202 and a job record for async).
//
// Determinism is the service's correctness contract: for a given graph,
// algorithm and seed the returned independent set is bit-identical to what
// cmd/maxis computes with the same flags, whether the result came from a
// cold solve, the cache, or a deduplicated concurrent request.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/plan"
	"distmwis/internal/protocol"

	// Imported for its registry side effects: the MIS black boxes the API
	// accepts are resolved through the protocol registry.
	_ "distmwis/internal/mis"
)

// GenSpec asks the server to build one of the seeded generator graphs
// instead of shipping an explicit edge list: the gen.Spec vocabulary that
// cmd/maxis and cmd/graphgen take as flags, built by the same gen.Spec.Build.
// The same spec always builds the same graph, so repeated specs are cache
// hits.
type GenSpec = gen.Spec

// FaultSpec is fault.Spec, the cmd/maxis -fault-* flags as a request field;
// its seed derivation is fault.Spec.Schedule's.
type FaultSpec = fault.Spec

// SolveRequest is the body of POST /v1/solve. Exactly one of Graph,
// Canonical, Gen and GraphRef must be set.
type SolveRequest struct {
	// Graph is an inline graph in the graph.ReadJSON format that
	// graph.WriteJSON and cmd/graphgen emit:
	// {"n":..., "ids":[...], "weights":[...], "edges":[[u,v],...]}; other
	// top-level fields, such as graphgen's "stats", are ignored.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Canonical is an inline graph in its canonical binary form
	// (graph.Canonical, base64 in JSON). The cluster coordinator ships parts
	// this way: the bytes it hashes are the bytes it sends, and the backend
	// decodes them without a JSON graph codec. It solves, caches and hashes
	// exactly as the same graph sent as Graph.
	Canonical []byte `json:"canonical,omitempty"`
	// Gen builds a generator graph server-side.
	Gen *GenSpec `json:"gen,omitempty"`
	// GraphRef solves a stored dynamic graph by content hash (any hash the
	// handle has ever had resolves to its current state; see PUT/PATCH
	// /v1/graph). Ref solves run component-wise so mutations re-solve only
	// the affected subgraphs, and are synchronous only.
	GraphRef string `json:"graph_ref,omitempty"`
	// Alg selects the algorithm (maxis.AlgorithmNames; default theorem2).
	Alg string `json:"alg,omitempty"`
	// Eps is the boosting parameter (default 0.5).
	Eps float64 `json:"eps,omitempty"`
	// Alpha is the theorem3 arboricity bound (0 = degeneracy).
	Alpha int `json:"alpha,omitempty"`
	// Seed is the root randomness seed (default 1). Identical requests with
	// identical seeds return bit-identical sets.
	Seed uint64 `json:"seed,omitempty"`
	// MIS selects the MIS black box by protocol-registry name (default
	// luby); "greedyid" is accepted as a legacy alias for greedy-id.
	MIS string `json:"mis,omitempty"`
	// Priority is interactive (default) or batch; interactive jobs are
	// scheduled strictly first.
	Priority string `json:"priority,omitempty"`
	// DeadlineMS bounds queue wait plus solve time; expired jobs fail with
	// status "deadline" (HTTP 504 on the sync path).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Async enqueues and returns a job id immediately; poll GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
	// NoCache bypasses the result cache (still deduplicated in flight).
	NoCache bool `json:"no_cache,omitempty"`
	// Degraded asks for the host-side greedy Δ+1 tier directly: answered
	// synchronously, no scheduler, no cache. It is the circuit-breaker
	// fallback of internal/server/client — when the full tier looks down,
	// the client trades approximation quality for availability explicitly.
	Degraded bool `json:"degraded,omitempty"`

	// Reliable, CheckpointEvery, Repair and Fault pass through to
	// maxis.Config exactly as the cmd/maxis flags of the same names.
	Reliable        bool       `json:"reliable,omitempty"`
	CheckpointEvery int        `json:"checkpoint_every,omitempty"`
	Repair          bool       `json:"repair,omitempty"`
	Fault           *FaultSpec `json:"fault,omitempty"`
}

// SolveResponse is the body returned by POST /v1/solve and GET /v1/jobs/{id}.
type SolveResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"` // queued|running|done|failed|deadline
	// Set lists the members of the independent set as ascending node
	// indices (present when Status == done).
	Set    []int32 `json:"set,omitempty"`
	Size   int     `json:"size,omitempty"`
	Weight int64   `json:"weight,omitempty"`
	// GraphHash is the canonical content hash of the solved graph.
	GraphHash string `json:"graph_hash,omitempty"`
	// Rounds, Messages and Bits measure the run that produced Set; for a
	// graph_ref solve that reused cached components, the one run over the
	// components that missed.
	Rounds   int   `json:"rounds,omitempty"`
	Messages int64 `json:"messages,omitempty"`
	Bits     int64 `json:"bits,omitempty"`
	// Cached reports the result came from the content-addressed cache;
	// Shared reports it was computed once for several concurrent requests.
	Cached bool `json:"cached,omitempty"`
	Shared bool `json:"shared,omitempty"`
	// Degraded reports the admission layer downgraded this request to the
	// greedy Δ+1-approximation instead of the requested algorithm.
	Degraded bool `json:"degraded,omitempty"`
	// Alg is the algorithm that actually produced the set — the planner's
	// choice when the request said "auto", "greedy-degraded" on the shed
	// tier. Guarantee renders its approximation bound for this instance.
	Alg       string `json:"alg,omitempty"`
	Guarantee string `json:"guarantee,omitempty"`
	// Quality tags graph_ref answers: "degraded" answers are queued for the
	// background repair tier, which republishes them as "improved" then
	// "full"; poll GET /v1/answers/{answer_key} to watch the upgrade.
	Quality   string  `json:"quality,omitempty"`
	AnswerKey string  `json:"answer_key,omitempty"`
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Normalize fills defaults and validates the request shape.
func (r *SolveRequest) Normalize() error {
	sources := 0
	if r.Graph != nil {
		sources++
	}
	if r.Canonical != nil {
		sources++
	}
	if r.Gen != nil {
		sources++
	}
	if r.GraphRef != "" {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of graph, canonical, gen and graph_ref must be set")
	}
	if r.GraphRef != "" && r.Async {
		// A journaled async job must replay bit-identically, but a graph_ref
		// resolves to whatever the handle holds at replay time — a moving
		// target. Ref solves therefore stay synchronous.
		return fmt.Errorf("graph_ref solves are synchronous; async is not supported")
	}
	if r.Alg == "" {
		r.Alg = "theorem2"
	}
	if r.Eps == 0 {
		r.Eps = 0.5
	}
	if r.Eps < 0 {
		return fmt.Errorf("eps must be positive, got %g", r.Eps)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.MIS == "" {
		r.MIS = "luby"
	}
	if r.MIS == "greedyid" {
		// Legacy spelling from before the protocol registry; the canonical
		// registry name is the algorithm's own Name().
		r.MIS = "greedy-id"
	}
	if _, err := protocol.MISByName(r.MIS); err != nil {
		return err
	}
	switch r.Priority {
	case "":
		r.Priority = "interactive"
	case "interactive", "batch":
	default:
		return fmt.Errorf("priority must be interactive or batch, got %q", r.Priority)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be non-negative")
	}
	if r.CheckpointEvery < 0 {
		return fmt.Errorf("checkpoint_every must be non-negative")
	}
	if r.CheckpointEvery > 0 && !r.Reliable {
		return fmt.Errorf("checkpoint_every requires reliable")
	}
	// Algorithm vocabulary comes from the protocol registry: any solver
	// registered there — including ones from outside internal/maxis — is
	// accepted here without edits. "auto" is the planner's name, not a
	// solver's: prepare() resolves it to a concrete registry entry before
	// any cache key is computed.
	if r.Alg != plan.Auto {
		if _, err := protocol.SolverByName(r.Alg); err != nil {
			return err
		}
	}
	return nil
}

// BuildGraph materialises the request's graph.
func (r *SolveRequest) BuildGraph() (*graph.Graph, error) {
	if r.Graph != nil {
		return graph.ReadJSON(bytes.NewReader(r.Graph))
	}
	if r.Canonical != nil {
		g, err := graph.FromCanonical(r.Canonical)
		if err != nil {
			return nil, err
		}
		// FromCanonical admits the negative weights of derived graphs; an
		// input graph obeys the JSON path's builder rule.
		if err := g.CheckInputWeights(); err != nil {
			return nil, err
		}
		return g, nil
	}
	return r.Gen.Build()
}

// CanonicalForm returns the canonical form of g, the graph BuildGraph built
// for r. For a canonical source that is r.Canonical itself, with no
// re-encoding: graph.FromCanonical accepts only bytes that re-encode to
// themselves.
func (r *SolveRequest) CanonicalForm(g *graph.Graph) []byte {
	if r.Canonical != nil {
		return r.Canonical
	}
	return g.Canonical()
}

// maxisConfig assembles the maxis.Config for this request, mirroring the
// cmd/maxis flag wiring (the fault schedule comes from the same
// fault.Spec.Schedule) so service results are bit-identical to CLI runs.
func (r *SolveRequest) maxisConfig(solveWorkers int) (maxis.Config, error) {
	misAlg, err := protocol.MISByName(r.MIS)
	if err != nil {
		return maxis.Config{}, err
	}
	cfg := maxis.Config{
		Seed:            r.Seed,
		MIS:             misAlg,
		Workers:         solveWorkers,
		Reliable:        r.Reliable,
		CheckpointEvery: r.CheckpointEvery,
		Repair:          r.Repair,
	}
	if r.Fault != nil {
		if sched := r.Fault.Schedule(r.Seed); sched.Enabled() {
			cfg.Faults = sched
		}
	}
	return cfg, nil
}

// Fingerprint is the config part of the cache key: every field that can
// change the output set must appear here. The graph itself is covered by
// its canonical hash.
func (r *SolveRequest) Fingerprint() string {
	var f FaultSpec
	if r.Fault != nil {
		f = *r.Fault
	}
	return fmt.Sprintf("v1|alg=%s|eps=%g|alpha=%d|seed=%d|mis=%s|rel=%t|cp=%d|rep=%t|fault=%g,%g,%g,%g,%d,%d",
		r.Alg, r.Eps, r.Alpha, r.Seed, r.MIS, r.Reliable, r.CheckpointEvery, r.Repair,
		f.Loss, f.Dup, f.Corrupt, f.Crash, f.Back, f.Seed)
}

// specFingerprint identifies a generator-spec request up to everything that
// affects its output: two requests with equal spec fingerprints build
// identical graphs and solve them under identical configs. Only defined for
// requests with a Gen spec.
func (r *SolveRequest) specFingerprint() string {
	g := r.Gen
	return fmt.Sprintf("gen|kind=%s|n=%d|p=%g|k=%d|w=%s|maxw=%d|gseed=%d|%s",
		g.Kind, g.N, g.P, g.K, g.Weights, g.MaxW, g.Seed, r.Fingerprint())
}
