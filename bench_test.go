// Package distmwis hosts the repository-level benchmark harness: one
// testing.B benchmark per reproduction table E1–E16 (DESIGN.md §2), each
// exercising the experiment's central measurement and reporting the
// domain metrics (CONGEST rounds, set weight) alongside wall-clock time.
//
// Regenerate the full tables with:  go run ./cmd/experiments
package distmwis

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"distmwis/internal/coloring"
	"distmwis/internal/congest"
	"distmwis/internal/exact"
	"distmwis/internal/experiments"
	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/localapprox"
	"distmwis/internal/lowerbound"
	"distmwis/internal/maxis"
	"distmwis/internal/mis"
	"distmwis/internal/reliable"
	"distmwis/internal/server"
	"distmwis/internal/trace"
)

// BenchmarkE1GoodNodes measures the Theorem 8 O(Δ)-approximation.
func BenchmarkE1GoodNodes(b *testing.B) {
	g := gen.Weighted(gen.GNP(2048, 12.0/2048, 1), gen.PolyWeights(2), 1)
	bound := float64(g.TotalWeight()) / (4 * float64(g.MaxDegree()+1))
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := maxis.GoodNodes(g, maxis.Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if float64(res.Weight) < bound {
			b.Fatalf("Theorem 8 guarantee violated: %d < %.1f", res.Weight, bound)
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE2Sparsify measures the Section 4.2 sampling protocol.
func BenchmarkE2Sparsify(b *testing.B) {
	g := gen.Weighted(gen.Clique(512), gen.UniformWeights(1<<16), 2)
	maxDH := 0
	for i := 0; i < b.N; i++ {
		inH, err := maxis.SampleSparsifier(g, maxis.Config{Seed: uint64(i + 1)}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		sub := g.Induce(inH)
		if d := sub.G.MaxDegree(); d > maxDH {
			maxDH = d
		}
	}
	b.ReportMetric(float64(maxDH), "maxΔH")
}

// BenchmarkE3Theorem1 measures the boosted deterministic-capable pipeline.
func BenchmarkE3Theorem1(b *testing.B) {
	g := gen.Weighted(gen.GNP(512, 0.03, 3), gen.UniformWeights(1000), 3)
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := maxis.Theorem1(g, 0.5, maxis.Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE4Theorem2 measures the randomized sparsified pipeline at
// W = n².
func BenchmarkE4Theorem2(b *testing.B) {
	g := gen.Weighted(gen.GNP(1024, 24.0/1024, 4), gen.PolyWeights(2), 4)
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := maxis.Theorem2(g, 1, maxis.Config{Seed: uint64(i + 1), MIS: mis.Ghaffari{}})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE5BaselineLogW measures the [8] baseline at large W.
func BenchmarkE5BaselineLogW(b *testing.B) {
	g := gen.Weighted(gen.GNP(512, 0.06, 5), gen.UniformWeights(1<<24), 5)
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := maxis.BarYehuda(g, maxis.Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE6Boost measures one full boosting run including the stack
// property verification.
func BenchmarkE6Boost(b *testing.B) {
	g := gen.Weighted(gen.GNP(400, 0.03, 6), gen.ExponentialSpreadWeights(24), 6)
	for i := 0; i < b.N; i++ {
		res, err := maxis.Theorem1(g, 0.5, maxis.Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Weight < res.StackValue {
			b.Fatal("stack property violated")
		}
	}
}

// BenchmarkE7Arboricity measures Theorem 3 on a bounded-arboricity graph.
func BenchmarkE7Arboricity(b *testing.B) {
	g := gen.Weighted(gen.UnionOfForests(600, 3, 7), gen.UniformWeights(256), 7)
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := maxis.Theorem3(g, 3, 0.5, maxis.Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE8Ranking measures the Theorem 11 ranking algorithm with its
// size guarantee.
func BenchmarkE8Ranking(b *testing.B) {
	g := gen.Cycle(4096)
	want := g.N() / (8 * (g.MaxDegree() + 1))
	for i := 0; i < b.N; i++ {
		res, err := maxis.Ranking(g, 2, maxis.Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if graph.SetSize(res.Set) < want {
			b.Fatalf("Theorem 11 size guarantee violated")
		}
	}
}

// BenchmarkE9SeqEquiv measures the sequential view of the ranking
// algorithm (Proposition 3 / Algorithm 3).
func BenchmarkE9SeqEquiv(b *testing.B) {
	g := gen.GNP(2048, 4.0/2048, 9)
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < b.N; i++ {
		set, _ := maxis.SeqBoppanna(g, rng)
		if !g.IsIndependentSet(set) {
			b.Fatal("dependent set")
		}
	}
}

// BenchmarkE10Theorem5 measures the O(1/ε) low-degree pipeline.
func BenchmarkE10Theorem5(b *testing.B) {
	g := gen.Torus(48, 48)
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := maxis.Theorem5(g, 0.5, maxis.Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE11OneRound measures the expectation-only [17] baseline on the
// high-variance instance.
func BenchmarkE11OneRound(b *testing.B) {
	g := gen.StarOfCliques(40, 400, 1_000_000)
	for i := 0; i < b.N; i++ {
		if _, err := maxis.OneRound(g, maxis.Config{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12LowerBound measures the Section 7 RandMIS reduction.
func BenchmarkE12LowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.RandMIS(128, 16, lowerbound.RankingAlgorithm(2), uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxGap > 128/2 {
			b.Fatalf("unexpectedly long gap %d", res.MaxGap)
		}
	}
}

// BenchmarkE13Headline measures the MIS-vs-approximation round comparison.
func BenchmarkE13Headline(b *testing.B) {
	g := gen.GNP(4096, 12.0/4096, 13)
	misRounds, apxRounds := 0, 0
	for i := 0; i < b.N; i++ {
		m, err := mis.Compute(mis.Luby{}, g, congest.Config{})
		if err != nil {
			b.Fatal(err)
		}
		a, err := maxis.Theorem5(g, 0.5, maxis.Config{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		misRounds = m.Exec.Rounds
		apxRounds = a.Metrics.Rounds
	}
	b.ReportMetric(float64(misRounds), "mis-rounds")
	b.ReportMetric(float64(apxRounds), "approx-rounds")
}

// BenchmarkE14ColorClass measures the Section 8 colour-class pipeline on a
// grid (the Ω(D) barrier of Open Question 2).
func BenchmarkE14ColorClass(b *testing.B) {
	g := gen.Weighted(gen.Grid(20, 20), gen.UniformWeights(100), 14)
	rounds := 0
	for i := 0; i < b.N; i++ {
		set, r, _, err := coloring.ColorClassApprox(g, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if !g.IsIndependentSet(set) {
			b.Fatal("dependent set")
		}
		rounds = r
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE15ColeVishkin measures the deterministic O(log* n) ring MIS.
func BenchmarkE15ColeVishkin(b *testing.B) {
	g := gen.Cycle(1 << 14)
	ports := coloring.CanonicalRingSuccessorPorts(g.N())
	rounds := 0
	for i := 0; i < b.N; i++ {
		set, r, _, err := coloring.RingMIS(g, ports, congest.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if !g.IsMaximalIS(set) {
			b.Fatal("not an MIS")
		}
		rounds = r
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE16LocalApprox measures the LOCAL (1+ε)-approximation via
// low-diameter decomposition.
func BenchmarkE16LocalApprox(b *testing.B) {
	g := gen.Weighted(gen.RandomTree(2000, 16), gen.UniformWeights(1000), 16)
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := localapprox.Approximate(g, localapprox.Options{Epsilon: 0.5, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkExactMWIS measures the exact branch-and-bound solver used to
// certify approximation ratios.
func BenchmarkExactMWIS(b *testing.B) {
	g := gen.Weighted(gen.GNP(48, 0.2, 14), gen.UniformWeights(1000), 14)
	for i := 0; i < b.N; i++ {
		if _, _, err := exact.MWIS(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableE3 regenerates the complete E3 table in quick mode — the
// end-to-end harness path used by cmd/experiments.
func BenchmarkTableE3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("E3", experiments.Options{Quick: true, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSeamRun executes Luby's MIS on g with a hard stop bounding the work,
// under the base benchmark seed plus the seam's configuration c.
func benchSeamRun(b *testing.B, g *graph.Graph, c congest.Config) *misOutput {
	b.Helper()
	c.Seed, c.HardStop = 11, 9
	res, err := runMIS(mis.Luby{}, g, c)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkPowerLawSeams1M drives the slot-message, batched-delivery round loop
// over a degree-skewed 1,000,000-node power-law graph (the workload the
// guided-chunking fix targets: hubs cluster at low indices) through every
// delivery seam the simulator offers — plain, fault injection, event
// tracing, and the reliable transport over a lossy link. Each sub-benchmark
// first computes a one-worker reference outside the timed region, then
// times four workers and requires their outputs bit-identical to that
// reference on every iteration, so the numbers double as a standing proof
// that inbox slots and call-time delivery are invisible to protocol
// semantics at scale.
func BenchmarkPowerLawSeams1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-node graph: skipped in -short mode")
	}
	g := gen.PowerLaw(1_000_000, 2.5, 2000, 41)
	seams := []struct {
		name   string
		config func(workers int) congest.Config // fresh per run: seams carry run-local state
	}{
		{"plain", func(workers int) congest.Config { return congest.Config{Workers: workers} }},
		{"faults", func(workers int) congest.Config {
			return congest.Config{Workers: workers, Hook: fault.NewInjector(fault.Schedule{
				Seed: 5, Loss: 0.02, Dup: 0.01, Corrupt: 0.005,
			})}
		}},
		{"trace", func(workers int) congest.Config {
			return congest.Config{Workers: workers, Tracer: trace.NewRing(64)}
		}},
		{"reliable", func(workers int) congest.Config {
			return congest.Config{Workers: workers, Hook: fault.NewInjector(fault.Schedule{Seed: 6, Loss: 0.02}),
				Reliable: reliable.New(reliable.Options{})}
		}},
	}
	for _, seam := range seams {
		b.Run(seam.name, func(b *testing.B) {
			ref := benchSeamRun(b, g, seam.config(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := benchSeamRun(b, g, seam.config(4))
				b.StopTimer()
				if !reflect.DeepEqual(ref.Outputs, res.Outputs) {
					b.Fatalf("seam %q: 4-worker outputs diverge from the 1-worker run", seam.name)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(ref.Rounds), "rounds")
		})
	}
}

// BenchmarkRoundLoop10M is the ROADMAP scale target: ten million nodes
// through the full round loop — send calls, flat inbox slabs, persistent
// pool workers — on a sparse GNP graph (mean degree
// 2.5, so ~12.5M edges). The hard stop bounds the run at nine simulator
// rounds of Luby's MIS; completing at all is the acceptance criterion, the
// ns/op figure is the trend to watch. Run with -benchtime=1x unless you
// mean it.
func BenchmarkRoundLoop10M(b *testing.B) {
	if testing.Short() {
		b.Skip("10M-node graph: skipped in -short mode")
	}
	const n = 10_000_000
	g := gen.GNP(n, 2.5/n, 17)
	b.ResetTimer()
	inSet := 0
	for i := 0; i < b.N; i++ {
		res, err := runMIS(mis.Luby{}, g, congest.Config{Seed: uint64(i + 1), HardStop: 9, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		inSet = graph.SetSize(res.Outputs)
		if inSet == 0 {
			b.Fatal("no node joined the MIS in 9 rounds on a 10M-node graph")
		}
	}
	b.ReportMetric(float64(inSet), "set-size")
	b.ReportMetric(float64(g.M()), "edges")
}

func benchSolve(b *testing.B, h http.Handler, raw []byte) server.SolveResponse {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(raw))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("solve: code=%d body=%s", w.Code, w.Body.String())
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	return resp
}

// BenchmarkServeColdVsCacheHit compares a cold 10k-node GNP solve through
// the full maxisd request path (decode → admit → schedule → engine) against
// a content-addressed cache hit for the identical request. The serving
// layer's design target is ≥100× on hits; compare the two sub-benchmark
// ns/op figures.
func BenchmarkServeColdVsCacheHit(b *testing.B) {
	s := server.New(server.Options{Workers: 1})
	defer func() { _ = s.Drain() }()
	h := s.Handler()
	mk := func(noCache bool) []byte {
		raw, err := json.Marshal(server.SolveRequest{
			Gen:     &server.GenSpec{Kind: "gnp", N: 10_000, P: 10.0 / 10_000, Weights: "poly2", Seed: 7},
			Alg:     "goodnodes",
			Seed:    7,
			NoCache: noCache,
		})
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}

	b.Run("cold", func(b *testing.B) {
		raw := mk(true) // bypass the cache: every iteration pays the engine
		for i := 0; i < b.N; i++ {
			if resp := benchSolve(b, h, raw); resp.Cached {
				b.Fatal("cold path unexpectedly served from cache")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		raw := mk(false)
		warm := benchSolve(b, h, raw) // populate the cache line
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp := benchSolve(b, h, raw)
			if !resp.Cached {
				b.Fatal("expected a cache hit")
			}
			if resp.Weight != warm.Weight {
				b.Fatalf("hit weight %d != cold weight %d", resp.Weight, warm.Weight)
			}
		}
	})
}

// BenchmarkServeSchedulerDepth1 measures per-request serving overhead at
// queue depth 1: a closed loop of uncacheable single-node solves, so the
// figure is dominated by scheduling, admission and JSON plumbing rather
// than engine time.
func BenchmarkServeSchedulerDepth1(b *testing.B) {
	s := server.New(server.Options{Workers: 1})
	defer func() { _ = s.Drain() }()
	h := s.Handler()
	raw, err := json.Marshal(server.SolveRequest{
		Gen:     &server.GenSpec{Kind: "path", N: 1},
		Alg:     "goodnodes",
		Seed:    1,
		NoCache: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		benchSolve(b, h, raw)
	}
}

// misOutput is an MIS run's Result with its membership vector.
type misOutput struct {
	*congest.Result
	Outputs []bool
}

// runMIS runs an MIS box on g, collecting its membership vector.
func runMIS(alg mis.Algorithm, g *graph.Graph, c congest.Config) (*misOutput, error) {
	set := make([]bool, g.N())
	res, err := alg.Run(g, c, set)
	if err != nil {
		return nil, err
	}
	return &misOutput{Result: res, Outputs: set}, nil
}
