package gen

import (
	"testing"

	"distmwis/internal/graph"
)

func TestCycle(t *testing.T) {
	g := Cycle(7)
	if g.N() != 7 || g.M() != 7 || g.MaxDegree() != 2 {
		t.Fatalf("got n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	for v := 0; v < 7; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPath(t *testing.T) {
	g := Path(5)
	if g.M() != 4 || g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Errorf("path shape wrong: m=%d", g.M())
	}
}

func TestClique(t *testing.T) {
	g := Clique(6)
	if g.M() != 15 || g.MaxDegree() != 5 {
		t.Errorf("K6: m=%d Δ=%d", g.M(), g.MaxDegree())
	}
}

func TestStar(t *testing.T) {
	g := Star(10)
	if g.Degree(0) != 9 || g.M() != 9 {
		t.Errorf("star shape wrong")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Errorf("K{3,4}: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) || !g.HasEdge(0, 3) {
		t.Error("bipartition wrong")
	}
}

func TestGridAndTorus(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 || g.M() != 3*3+2*4 {
		t.Errorf("grid 3x4: n=%d m=%d, want 12, 17", g.N(), g.M())
	}
	tor := Torus(3, 4)
	if tor.N() != 12 || tor.M() != 24 {
		t.Errorf("torus 3x4: n=%d m=%d, want 12, 24", tor.N(), tor.M())
	}
	for v := 0; v < tor.N(); v++ {
		if tor.Degree(v) != 4 {
			t.Errorf("torus Degree(%d) = %d, want 4", v, tor.Degree(v))
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Errorf("Q4: n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Errorf("Q4 Degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestGNP(t *testing.T) {
	g := GNP(200, 0.05, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected m = C(200,2)*0.05 = 995; allow wide slack.
	if g.M() < 700 || g.M() > 1300 {
		t.Errorf("G(200,0.05) m = %d, outside sanity band", g.M())
	}
	// Determinism.
	g2 := GNP(200, 0.05, 1)
	if g2.M() != g.M() {
		t.Error("GNP not deterministic for fixed seed")
	}
	if GNP(50, 0, 1).M() != 0 {
		t.Error("GNP(p=0) has edges")
	}
	if GNP(10, 1, 1).M() != 45 {
		t.Error("GNP(p=1) is not complete")
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := RandomRegular(100, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Error("expected parity error for n*d odd")
	}
	if _, err := RandomRegular(4, 4, 1); err == nil {
		t.Error("expected error for d >= n")
	}
}

func TestRandomTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 257} {
		g := RandomTree(n, 42)
		if g.N() != n {
			t.Fatalf("n = %d", g.N())
		}
		if n >= 1 && g.M() != n-1 && n > 1 {
			t.Fatalf("tree on %d nodes has %d edges", n, g.M())
		}
		if n > 1 {
			if _, count := g.Components(); count != 1 {
				t.Fatalf("tree on %d nodes is disconnected", n)
			}
		}
	}
}

func TestUnionOfForests(t *testing.T) {
	g := UnionOfForests(150, 3, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if hi := g.ArboricityUpperBound(); hi > 2*3 {
		t.Errorf("union of 3 forests has degeneracy %d > 6", hi)
	}
	// The union of k spanning trees has at most k(n-1) edges, and arboricity
	// at most k by construction.
	if g.M() > 3*149 {
		t.Errorf("m = %d exceeds 3(n-1)", g.M())
	}
}

func TestApollonian(t *testing.T) {
	g := Apollonian(300, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Maximal planar: m = 3n - 6.
	if g.M() != 3*300-6 {
		t.Errorf("Apollonian m = %d, want %d", g.M(), 3*300-6)
	}
	// Planar => arboricity <= 3; degeneracy of Apollonian networks is 3.
	if hi := g.ArboricityUpperBound(); hi != 3 {
		t.Errorf("Apollonian degeneracy = %d, want 3", hi)
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(10, 5)
	if g.N() != 60 || g.M() != 59 {
		t.Errorf("caterpillar: n=%d m=%d, want 60, 59", g.N(), g.M())
	}
	if _, count := g.Components(); count != 1 {
		t.Error("caterpillar disconnected")
	}
	if g.ArboricityUpperBound() != 1 {
		t.Errorf("caterpillar degeneracy = %d, want 1", g.ArboricityUpperBound())
	}
}

func TestChungLu(t *testing.T) {
	g := ChungLu(300, 2.5, 50, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() == 0 {
		t.Error("ChungLu produced empty graph")
	}
}

func TestCycleOfCliques(t *testing.T) {
	const n0, n1 = 6, 5
	g := CycleOfCliques(n0, n1)
	if g.N() != n0*n1 {
		t.Fatalf("n = %d", g.N())
	}
	// Each node: n1-1 intra-clique + 2*n1 to the two adjacent cliques.
	wantDeg := n1 - 1 + 2*n1
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != wantDeg {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), wantDeg)
		}
	}
	// Adjacency structure: same clique or adjacent cliques only.
	for v := 0; v < g.N(); v++ {
		ci := CliqueIndex(v, n1)
		for _, u := range g.Neighbors(v) {
			cj := CliqueIndex(int(u), n1)
			diff := (cj - ci + n0) % n0
			if diff != 0 && diff != 1 && diff != n0-1 {
				t.Fatalf("edge between cliques %d and %d", ci, cj)
			}
		}
	}
	// IDs are the compact (i, j) encoding i*n1+j+1.
	if g.ID(n1+2) != uint64(n1+3) {
		t.Errorf("ID scheme wrong: %d", g.ID(n1+2))
	}
}

func TestStarOfCliques(t *testing.T) {
	g := StarOfCliques(8, 100, 1000)
	if g.N() != 108 {
		t.Fatalf("n = %d", g.N())
	}
	if g.Weight(0) != 1000 || g.Weight(100) != 1 {
		t.Error("weights wrong")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPlantedIS(t *testing.T) {
	g, planted := PlantedIS(400, 60, 1000, 0.05, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsIndependentSet(planted) {
		t.Fatal("planted set not independent")
	}
	if got := graph.SetSize(planted); got != 60 {
		t.Fatalf("planted size %d, want 60", got)
	}
	if g.SetWeight(planted) != 60*1000 {
		t.Fatalf("planted weight %d, want 60000", g.SetWeight(planted))
	}
	// Non-planted nodes have unit weight.
	for v := 0; v < g.N(); v++ {
		if !planted[v] && g.Weight(v) != 1 {
			t.Fatalf("non-planted node %d has weight %d", v, g.Weight(v))
		}
	}
	// IDs are shuffled but unique (Build validates uniqueness).
	if g.M() == 0 {
		t.Error("no noise edges generated")
	}
}

func TestPlantedISClampsSize(t *testing.T) {
	g, planted := PlantedIS(10, 50, 5, 0, 1)
	if g.N() != 10 || graph.SetSize(planted) != 10 {
		t.Error("planted size not clamped to n")
	}
	if g.M() != 0 {
		t.Error("p=0 produced edges")
	}
}

func TestWeightFns(t *testing.T) {
	tests := []struct {
		name string
		fn   WeightFn
	}{
		{name: "unit", fn: UnitWeights},
		{name: "uniform", fn: UniformWeights(1000)},
		{name: "poly", fn: PolyWeights(2)},
		{name: "expspread", fn: ExponentialSpreadWeights(20)},
		{name: "skewed", fn: SkewedWeights(0.1, 1<<20)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := tt.fn(500, 11)
			if len(w) != 500 {
				t.Fatalf("len = %d", len(w))
			}
			for i, x := range w {
				if x <= 0 {
					t.Fatalf("w[%d] = %d not positive", i, x)
				}
			}
			// Determinism.
			w2 := tt.fn(500, 11)
			for i := range w {
				if w[i] != w2[i] {
					t.Fatal("weight fn not deterministic")
				}
			}
		})
	}
}

func TestWeighted(t *testing.T) {
	g := Weighted(Cycle(10), UniformWeights(99), 3)
	if g.IsUnitWeight() {
		t.Error("Weighted left unit weights")
	}
	if g.MaxWeight() > 100 {
		t.Errorf("MaxWeight = %d", g.MaxWeight())
	}
}

func TestRandomIDs(t *testing.T) {
	g := RandomIDs(Cycle(50), 1<<20, 17)
	seen := make(map[uint64]bool)
	for v := 0; v < g.N(); v++ {
		id := g.ID(v)
		if id == 0 || id > 1<<20 {
			t.Fatalf("ID(%d) = %d out of range", v, id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
	if g.M() != 50 {
		t.Error("RandomIDs changed topology")
	}
}

func TestGeneratorsValidate(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle":          Cycle(30),
		"path":           Path(30),
		"clique":         Clique(12),
		"star":           Star(20),
		"bipartite":      CompleteBipartite(5, 8),
		"grid":           Grid(5, 6),
		"torus":          Torus(4, 5),
		"hypercube":      Hypercube(5),
		"gnp":            GNP(100, 0.1, 2),
		"tree":           RandomTree(64, 3),
		"forests":        UnionOfForests(64, 2, 4),
		"apollonian":     Apollonian(64, 5),
		"caterpillar":    Caterpillar(8, 3),
		"chunglu":        ChungLu(80, 2.8, 20, 6),
		"cycleofcliques": CycleOfCliques(5, 4),
		"starofcliques":  StarOfCliques(4, 20, 100),
	}
	for name, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPowerLaw(t *testing.T) {
	g := PowerLaw(3000, 2.5, 60, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() == 0 {
		t.Error("PowerLaw produced empty graph")
	}
	// Hubs cluster at the low indices by construction.
	lo, hi := 0, 0
	for v := 0; v < 100; v++ {
		lo += g.Degree(v)
	}
	for v := g.N() - 100; v < g.N(); v++ {
		hi += g.Degree(v)
	}
	if lo <= hi {
		t.Errorf("expected hub degrees at low IDs: low-100 sum %d, high-100 sum %d", lo, hi)
	}
	// Determinism: same seed, same graph.
	h := PowerLaw(3000, 2.5, 60, 11)
	if g.M() != h.M() {
		t.Errorf("PowerLaw not deterministic: m=%d vs %d", g.M(), h.M())
	}
}

func TestSpecDefaults(t *testing.T) {
	build := func(s Spec) string {
		t.Helper()
		g, err := s.Build()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		return g.HashString()
	}
	if build(Spec{Kind: "gnp", N: 50, P: 0.1}) != build(Spec{Kind: "gnp", N: 50, P: 0.1, Seed: 1, Weights: "unit"}) {
		t.Error("zero seed / empty weights do not default to seed 1 / unit")
	}
	if build(Spec{Kind: "tree", N: 50, Weights: "skewed"}) != build(Spec{Kind: "tree", N: 50, Weights: "skewed", MaxW: 1000}) {
		t.Error("zero maxw does not default to 1000")
	}
	for _, bad := range []Spec{{Kind: "moebius", N: 4}, {Kind: "cycle", N: 4, Weights: "golden"}, {Kind: "cycle"}} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("%+v: Build accepted it", bad)
		}
	}
}
