package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"

	"distmwis/internal/graph"
	"distmwis/internal/server"
)

// workload is one named traffic mix. Its inputs are built from the seed
// when it is constructed, before any set-up is timed.
type workload interface {
	// clients is the closed-loop client count of the timed phase.
	clients() int
	// setups is how many times a run boots the system; setup_s is the
	// median of their durations.
	setups() int
	// ops returns the seeded operation sequence, encoded in advance.
	ops() []op
	// boot starts a fresh system and warms it. A non-nil tracer wraps the
	// servers' handlers with its span middleware.
	boot(t *tracer) (*system, error)
	// stages runs, benchmark-side, the public functions that the server
	// calls for operation i, as replay spans of its handlers (traced runs).
	stages(i int, ot *opTrace)
	// verify checks every answer in res. before and after are the
	// program's counters around the phase, for the integrity assertions.
	// A non-nil tracer also receives per-layer samples read off the
	// answers.
	verify(res []opResult, before, after counters, t *tracer) verdict
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "cold-solve":
		return newColdSolve(seed), nil
	case "hot-inline":
		return newHotInline(seed), nil
	case "mutate-ref":
		return newMutateRef(seed), nil
	case "cluster-fanout":
		return newClusterFanout(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-solve, hot-inline, mutate-ref or cluster-fanout)", name)
}

// rng returns a generator for one purpose of one seed; different streams of
// the same seed are independent.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// verdict is the outcome of checking one phase's answers.
type verdict struct {
	attempted int
	failed    int
	reasons   map[string]int
	integrity []string
	// weight and ref sum the returned weight and the exact.GreedyMWIS
	// weight over the quality window: the operations the workload fixes
	// for weight_ratio, so the ratio repeats exactly for a seed.
	weight, ref int64
	windowOps   int
	window      int
}

func newVerdict(window int) verdict {
	return verdict{reasons: make(map[string]int), window: window}
}

func (v *verdict) fail(reason string) {
	v.failed++
	v.reasons[reason]++
}

// httpFailure classifies a call that did not answer 2xx, or "" if it did.
func httpFailure(c callResult) string {
	switch {
	case c.err != nil:
		return "transport error"
	case c.status < 200 || c.status > 299:
		return fmt.Sprintf("HTTP %d", c.status)
	}
	return ""
}

func (v *verdict) violate(format string, args ...any) {
	v.integrity = append(v.integrity, fmt.Sprintf(format, args...))
}

// inWindow adds one answer to the weight_ratio sums.
func (v *verdict) inWindow(weight, ref int64) {
	v.weight += weight
	v.ref += ref
	v.windowOps++
}

// correct holds when no operation failed, the integrity assertions hold
// and the whole quality window was answered.
func (v *verdict) correct() bool {
	return v.failed == 0 && len(v.integrity) == 0 && v.windowOps == v.window && v.attempted > 0
}

func (v *verdict) weightRatio() float64 {
	if v.ref == 0 {
		return 0
	}
	return float64(v.weight) / float64(v.ref)
}

func (v *verdict) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench: attempted=%d succeeded=%d failed=%d quality-window=%d/%d\n",
		v.attempted, v.attempted-v.failed, v.failed, v.windowOps, v.window)
	reasons := make([]string, 0, len(v.reasons))
	for r, n := range v.reasons {
		reasons = append(reasons, fmt.Sprintf("%s ×%d", r, n))
	}
	sort.Strings(reasons)
	if len(reasons) > 0 {
		fmt.Fprintf(w, "perfbench: failures: %s\n", strings.Join(reasons, "; "))
	}
	for _, msg := range v.integrity {
		fmt.Fprintf(w, "perfbench: integrity violated: %s\n", msg)
	}
}

// checkSet verifies an answer against the graph it was asked about: every
// member in range, the set independent (graph.IsIndependentSet), and its
// weight recomputed equal to the reported one.
func checkSet(g *graph.Graph, members []int32, weight int64) string {
	set := make([]bool, g.N())
	for _, v := range members {
		if v < 0 || int(v) >= g.N() {
			return "wrong answer: member out of range"
		}
		set[v] = true
	}
	if !g.IsIndependentSet(set) {
		return "wrong answer: not independent"
	}
	if g.SetWeight(set) != weight {
		return "wrong answer: weight mismatch"
	}
	return ""
}

// checkSolve applies the checks every /v1/solve answer must pass: a done,
// non-degraded answer for the right graph whose set verifies.
func checkSolve(g *graph.Graph, hash string, resp *server.SolveResponse) string {
	switch {
	case resp.Status != "done":
		return "status " + resp.Status
	case resp.Degraded:
		return "degraded answer"
	case resp.GraphHash != hash:
		return "wrong answer: graph hash"
	}
	return checkSet(g, resp.Set, resp.Weight)
}

// genRequest is a /v1/solve body that builds a gnp graph server-side.
func genRequest(n int, p float64, gseed uint64) server.SolveRequest {
	return server.SolveRequest{
		Gen: &server.GenSpec{Kind: "gnp", N: n, P: p, Weights: "poly2", Seed: gseed},
		Alg: "theorem2",
	}
}
