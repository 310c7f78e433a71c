package mis

import (
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

func algorithms() []Algorithm {
	return []Algorithm{Luby{}, Ghaffari{}, Rank{}, GreedyByID{}}
}

func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	reg, err := gen.RandomRegular(60, 6, 11)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*graph.Graph{
		"single":     gen.Path(1),
		"edge":       gen.Path(2),
		"path":       gen.Path(17),
		"cycle":      gen.Cycle(32),
		"clique":     gen.Clique(20),
		"star":       gen.Star(25),
		"gnp-sparse": gen.GNP(150, 0.02, 7),
		"gnp-dense":  gen.GNP(80, 0.3, 8),
		"regular":    reg,
		"tree":       gen.RandomTree(100, 9),
		"bipartite":  gen.CompleteBipartite(6, 9),
		"isolated":   graph.NewBuilder(12).MustBuild(),
		"coc":        gen.CycleOfCliques(5, 4),
	}
}

func TestAlgorithmsProduceMIS(t *testing.T) {
	for _, alg := range algorithms() {
		for name, g := range testGraphs(t) {
			t.Run(alg.Name()+"/"+name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					res, err := Compute(alg, g, congest.Config{Seed: seed})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if err := Verify(g, res.Set); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

func TestCliqueMISHasExactlyOneNode(t *testing.T) {
	g := gen.Clique(25)
	for _, alg := range algorithms() {
		res, err := Compute(alg, g, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.SetSize(res.Set); got != 1 {
			t.Errorf("%s: clique MIS size = %d, want 1", alg.Name(), got)
		}
	}
}

func TestIsolatedNodesAllJoin(t *testing.T) {
	g := graph.NewBuilder(9).MustBuild()
	for _, alg := range algorithms() {
		res, err := Compute(alg, g, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.SetSize(res.Set); got != 9 {
			t.Errorf("%s: isolated-node MIS size = %d, want 9", alg.Name(), got)
		}
		if res.Exec.Rounds > 3 {
			t.Errorf("%s: isolated nodes took %d rounds", alg.Name(), res.Exec.Rounds)
		}
	}
}

func TestLubyRoundsLogarithmic(t *testing.T) {
	// Luby terminates in O(log n) iterations w.h.p.; with 3 rounds per
	// iteration, 60 rounds is a generous cap for n = 4096.
	g := gen.GNP(4096, 0.002, 3)
	res, err := Compute(Luby{}, g, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Set); err != nil {
		t.Fatal(err)
	}
	if res.Exec.Rounds > 60 {
		t.Errorf("Luby took %d rounds on n=4096, want O(log n) ≈ ≤60", res.Exec.Rounds)
	}
}

func TestCongestComplianceWithTightBandwidth(t *testing.T) {
	// All three protocols must fit their messages in 8·log2(n) bits.
	g := gen.GNP(256, 0.05, 5)
	for _, alg := range algorithms() {
		if _, err := Compute(alg, g, congest.Config{BandwidthFactor: 8}); err != nil {
			t.Errorf("%s violates CONGEST bandwidth: %v", alg.Name(), err)
		}
	}
}

func TestVerifyRejectsBadSets(t *testing.T) {
	g := gen.Path(4)
	if err := Verify(g, []bool{true, true, false, false}); err == nil {
		t.Error("Verify accepted a dependent set")
	}
	if err := Verify(g, []bool{true, false, false, false}); err == nil {
		t.Error("Verify accepted a non-maximal set")
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	g := gen.GNP(100, 0.05, 4)
	for _, alg := range algorithms() {
		a, err := Compute(alg, g, congest.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compute(alg, g, congest.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Set {
			if a.Set[v] != b.Set[v] {
				t.Fatalf("%s not deterministic for fixed seed", alg.Name())
			}
		}
	}
}

func TestGreedyByIDIsSeedIndependent(t *testing.T) {
	// The whole point of the deterministic box: output depends only on the
	// graph, never on randomness.
	g := gen.GNP(150, 0.05, 9)
	a, err := Compute(GreedyByID{}, g, congest.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(GreedyByID{}, g, congest.Config{Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Set {
		if a.Set[v] != b.Set[v] {
			t.Fatal("GreedyByID output depends on the seed")
		}
	}
}

func TestGreedyByIDPicksLocalMaxima(t *testing.T) {
	// On a path with increasing IDs (v+1), greedy-by-ID joins from the
	// high end: nodes n-1, n-3, ...
	g := gen.Path(6)
	res, err := Compute(GreedyByID{}, g, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, true, false, true}
	for v := range want {
		if res.Set[v] != want[v] {
			t.Errorf("set[%d] = %v, want %v", v, res.Set[v], want[v])
		}
	}
}

func TestGreedyByIDWorstCaseChain(t *testing.T) {
	// Monotone ID path: decisions propagate one node per round — the Θ(n)
	// worst case that motivates treating MIS as a black box.
	const n = 120
	g := gen.Path(n)
	res, err := Compute(GreedyByID{}, g, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Set); err != nil {
		t.Fatal(err)
	}
	if res.Exec.Rounds < n/4 {
		t.Errorf("expected Θ(n) rounds on the monotone chain, got %d", res.Exec.Rounds)
	}
	if budget := (GreedyByID{}).RoundBudget(n, 2); res.Exec.Rounds > budget {
		t.Errorf("rounds %d exceed declared budget %d", res.Exec.Rounds, budget)
	}
}

func TestRoundBudgetsCoverActualRounds(t *testing.T) {
	// The declared budgets are w.h.p. upper bounds; on moderate graphs the
	// measured rounds must stay below them.
	g := gen.GNP(512, 0.03, 10)
	for _, alg := range algorithms() {
		res, err := Compute(alg, g, congest.Config{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if budget := alg.RoundBudget(g.N(), g.MaxDegree()); res.Exec.Rounds > budget {
			t.Errorf("%s: %d rounds exceed budget %d", alg.Name(), res.Exec.Rounds, budget)
		}
	}
}

func BenchmarkLuby(b *testing.B) {
	g := gen.GNP(2048, 0.005, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(Luby{}, g, congest.Config{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
