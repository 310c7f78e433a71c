package maxis

import (
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/mis"
	"distmwis/internal/protocol"
)

// weightedSuite builds the standard weighted test graphs.
func weightedSuite(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	reg, err := gen.RandomRegular(80, 8, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*graph.Graph{
		"cycle-unit":     gen.Cycle(40),
		"cycle-weighted": gen.Weighted(gen.Cycle(40), gen.UniformWeights(1000), 1),
		"clique":         gen.Weighted(gen.Clique(30), gen.UniformWeights(100), 2),
		"star":           gen.Weighted(gen.Star(50), gen.SkewedWeights(0.05, 1<<16), 3),
		"gnp":            gen.Weighted(gen.GNP(200, 0.05, 4), gen.PolyWeights(2), 4),
		"regular":        gen.Weighted(reg, gen.ExponentialSpreadWeights(16), 5),
		"tree":           gen.Weighted(gen.RandomTree(120, 6), gen.UniformWeights(500), 6),
		"bipartite":      gen.Weighted(gen.CompleteBipartite(10, 15), gen.UniformWeights(50), 7),
		"isolated":       gen.Weighted(graph.NewBuilder(10).MustBuild(), gen.UniformWeights(9), 8),
		"apollonian":     gen.Weighted(gen.Apollonian(100, 9), gen.UniformWeights(64), 9),
	}
}

// assertTheorem8 checks the deterministic guarantee w(I) ≥ w(V)/(4(Δ+1)).
func assertTheorem8(t *testing.T, g *graph.Graph, got int64) {
	t.Helper()
	lhs := 4 * int64(g.MaxDegree()+1) * got
	if lhs < g.TotalWeight() {
		t.Errorf("Theorem 8 guarantee violated: 4(Δ+1)·w(I) = %d < w(V) = %d", lhs, g.TotalWeight())
	}
}

func TestGoodNodesGuarantee(t *testing.T) {
	for name, g := range weightedSuite(t) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				res, err := GoodNodes(g, Config{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if !g.IsIndependentSet(res.Set) {
					t.Fatal("dependent set")
				}
				assertTheorem8(t, g, res.Weight)
			}
		})
	}
}

func TestGoodNodesWithAllMISBoxes(t *testing.T) {
	g := gen.Weighted(gen.GNP(150, 0.06, 10), gen.UniformWeights(999), 11)
	for _, alg := range []mis.Algorithm{mis.Luby{}, mis.Ghaffari{}, mis.Rank{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			res, err := GoodNodes(g, Config{MIS: alg, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			assertTheorem8(t, g, res.Weight)
		})
	}
}

func TestGoodDetectMatchesDefinition(t *testing.T) {
	// Verify the protocol's good flags against a host-side computation of
	// w(v) ≥ w(N⁺(v))/(2(δ(v)+1)).
	g := gen.Weighted(gen.GNP(120, 0.08, 12), gen.UniformWeights(100), 13)
	cfg := Config{Seed: 5}.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	_, good, err := goodNodesRun(g, cfg, seeds, &acc)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		delta := g.Degree(v)
		sum := g.Weight(v)
		for _, u := range g.Neighbors(v) {
			if g.Degree(int(u)) > delta {
				delta = g.Degree(int(u))
			}
			sum += g.Weight(int(u))
		}
		want := 2*int64(delta+1)*g.Weight(v) >= sum
		if good[v] != want {
			t.Errorf("node %d: good = %v, want %v", v, good[v], want)
		}
	}
}

func TestGoodNodesOnUniformWeightsIsLargeOnSparse(t *testing.T) {
	// Every node of a regular unit-weight graph is good, so the result is a
	// full MIS.
	g := gen.Cycle(60)
	res, err := GoodNodes(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mis.Verify(g, res.Set); err != nil {
		t.Errorf("on a regular unit-weight graph the good subgraph is everything, so output must be an MIS: %v", err)
	}
}

func TestGoodNodesHeavyHubWins(t *testing.T) {
	// A star whose hub holds nearly all weight: the hub is the only good
	// node with weight mattering; the result must include the hub.
	g := gen.Star(30).WithWeights(append([]int64{1 << 20}, make([]int64, 29)...))
	// Leaves need positive weights for the builder-free WithWeights path.
	w := g.Weights()
	for i := 1; i < len(w); i++ {
		w[i] = 1
	}
	g = g.WithWeights(w)
	res, err := GoodNodes(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Set[0] {
		t.Error("hub with dominant weight not selected")
	}
	assertTheorem8(t, g, res.Weight)
}

func TestGoodNodesRoundsAreMISPlusConstant(t *testing.T) {
	g := gen.Weighted(gen.GNP(300, 0.03, 14), gen.UniformWeights(100), 15)
	res, err := GoodNodes(g, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	misRes, err := mis.Compute(mis.Luby{}, g, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds must be within a small constant plus the MIS cost; very loose
	// sanity bound (3x + 10).
	if res.Metrics.Rounds > 3*misRes.Exec.Rounds+10 {
		t.Errorf("GoodNodes rounds %d ≫ MIS rounds %d", res.Metrics.Rounds, misRes.Exec.Rounds)
	}
}

func TestGoodNodesEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	res, err := GoodNodes(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 0 || len(res.Set) != 0 {
		t.Error("empty graph should give empty result")
	}
}
