package experiments

import (
	"math"

	"distmwis/internal/congest"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/mis"
)

// runE2 validates the sparsifier of Section 4.2: Lemma 3 (Δ_H = O(log n))
// and Lemma 5 (w(V_H) = Ω(min{w(V), w(V)·log n/Δ})).
func runE2(opts Options) (*Table, error) {
	trials := opts.trials(5, 2)
	t := &Table{
		ID:    "E2",
		Title: "Weighted sparsification (Theorem 9, Lemmas 3 and 5)",
		Claim: "Δ_H = O(log n) and w(V_H) = Ω(min{w(V), w(V)·log n/Δ}) w.h.p.",
		Columns: []string{
			"graph", "n", "Δ", "log₂n", "mean Δ_H", "max Δ_H", "4λ·log₂n",
			"mean w(V_H)/w(V)", "Lemma5 target/w(V)", "n_H (mean)",
		},
	}
	graphs := []namedGraph{
		{name: "clique", g: gen.Weighted(gen.Clique(512), gen.UniformWeights(1<<16), opts.seed())},
		{name: "gnp-dense", g: gen.Weighted(gen.GNP(1024, 0.2, opts.seed()), gen.PolyWeights(2), opts.seed())},
		{name: "gnp-mid", g: gen.Weighted(gen.GNP(1024, 0.05, opts.seed()+1), gen.UniformWeights(1000), opts.seed()+1)},
		{name: "bipartite", g: gen.Weighted(gen.CompleteBipartite(256, 256), gen.UniformWeights(100), opts.seed()+2)},
		{name: "skewed", g: gen.Weighted(gen.GNP(800, 0.15, opts.seed()+3), gen.SkewedWeights(0.01, 1<<24), opts.seed()+3)},
	}
	if opts.Quick {
		graphs = graphs[:2]
	}
	const lambda = 2.0
	for _, wl := range graphs {
		g := wl.g
		logn := math.Log2(float64(g.N()))
		var sumDH, maxDH, sumFrac, sumNH float64
		for trial := 0; trial < trials; trial++ {
			cfg := maxis.Config{Seed: opts.seed() + uint64(trial), Lambda: lambda}
			inH, err := maxis.SampleSparsifier(g, cfg, nil, nil)
			if err != nil {
				return nil, err
			}
			sub := g.Induce(inH)
			dh := float64(sub.G.MaxDegree())
			sumDH += dh
			if dh > maxDH {
				maxDH = dh
			}
			sumFrac += float64(sub.G.TotalWeight()) / float64(g.TotalWeight())
			sumNH += float64(sub.G.N())
		}
		target := math.Min(1, logn/float64(g.MaxDegree()))
		t.Rows = append(t.Rows, []string{
			wl.name, fi(g.N()), fi(g.MaxDegree()), ff(logn),
			ff(sumDH / float64(trials)), ff(maxDH), ff(4 * lambda * logn),
			ff4(sumFrac / float64(trials)), ff4(target), ff(sumNH / float64(trials)),
		})
	}
	t.Notes = append(t.Notes,
		"Lemma 5's target column is min{1, log n/Δ}: the fraction of w(V) the sparsifier must retain up to constants; the measured fraction should be at least a constant multiple of it.")
	return t, nil
}

// runE4 charts rounds versus n for Theorem 2 against the Bar-Yehuda et al.
// baseline at W = n² — the exponential-speed-up claim in its measured and
// budgeted forms.
func runE4(opts Options) (*Table, error) {
	sizes := []int{256, 512, 1024, 2048}
	if opts.Quick {
		sizes = []int{256, 512}
	}
	alg := mis.Ghaffari{}
	t := &Table{
		ID:    "E4",
		Title: "Rounds vs n: Theorem 2 against the [8] baseline (W = n²)",
		Claim: "Theorem 2 runs in poly(log log n)/ε rounds; [8] needs O(MIS(n,Δ)·log W)",
		Columns: []string{
			"n", "Δ", "log₂W", "thm2 rounds", "baseline rounds",
			"thm2 budget", "baseline budget", "budget speed-up",
		},
	}
	for _, n := range sizes {
		topo := gen.GNP(n, 0.25, opts.seed()) // dense: Δ ≈ n/4, the regime sparsification targets
		g := gen.Weighted(topo, gen.PolyWeights(2), opts.seed())
		cfg := maxis.Config{Seed: opts.seed(), MIS: alg}
		fast, err := maxis.Theorem2(g, 1, cfg)
		if err != nil {
			return nil, err
		}
		base, err := maxis.BarYehuda(g, cfg)
		if err != nil {
			return nil, err
		}
		deltaH := maxis.DeltaHBound(n, 2.0)
		fastBudget := maxis.BudgetTheorem2(alg, n, deltaH, 1)
		baseBudget := maxis.BudgetBarYehuda(alg, n, g.MaxDegree(), g.MaxWeight())
		t.Rows = append(t.Rows, []string{
			fi(n), fi(g.MaxDegree()), ff(math.Log2(float64(g.MaxWeight()))),
			fi(fast.Metrics.Rounds), fi(base.Metrics.Rounds),
			fi(fastBudget), fi(baseBudget),
			ff(float64(baseBudget) / float64(fastBudget)),
		})
	}
	// Budget-only rows at sizes beyond simulation: the paper's asymptotic
	// separation, instantiated with the declared MIS(n,Δ) budgets at
	// Δ = n/4 and W = n³.
	for _, logN := range []int{16, 20, 24, 30} {
		n := 1 << uint(logN)
		delta := n / 4
		deltaH := maxis.DeltaHBound(n, 2.0)
		fastBudget := maxis.BudgetTheorem2(alg, n, deltaH, 1)
		baseBudget := maxis.BudgetBarYehudaLogW(alg, n, delta, 3*logN)
		t.Rows = append(t.Rows, []string{
			"2^" + fi(logN), fi(delta), fi(3 * logN),
			"-", "-", fi(fastBudget), fi(baseBudget),
			ff(float64(baseBudget) / float64(fastBudget)),
		})
	}
	t.Notes = append(t.Notes,
		"Measured rounds use global termination detection (phases on empty residual graphs cost ~nothing); budgets charge every phase its declared w.h.p. MIS(n,Δ) bound, which is how the paper's round complexities compose.",
		"The budget-only rows ('-' measured columns) evaluate the same formulas at sizes beyond simulation: the baseline grows as log W · MIS(n,Δ) while Theorem 2 stays at ⌈16/ε⌉ · MIS(n, O(log n)) — the separation widens without bound.",
	)
	return t, nil
}

// runE5 fixes the topology and sweeps W: the baseline's rounds track log W
// while Theorem 2's stay flat.
func runE5(opts Options) (*Table, error) {
	logWs := []int{2, 6, 12, 18, 24}
	if opts.Quick {
		logWs = []int{2, 12, 24}
	}
	topo := gen.GNP(512, 0.06, opts.seed())
	alg := mis.Luby{}
	t := &Table{
		ID:    "E5",
		Title: "Rounds vs W on fixed topology (the log W factor of [8])",
		Claim: "Baseline rounds grow with log W; Theorem 1/2 rounds are W-independent",
		Columns: []string{
			"log₂W", "baseline scales", "baseline rounds", "baseline budget",
			"thm2 rounds", "thm2 budget",
		},
	}
	deltaH := maxis.DeltaHBound(topo.N(), 2.0)
	for _, lw := range logWs {
		g := gen.Weighted(topo, gen.UniformWeights(int64(1)<<uint(lw)), opts.seed())
		// The sweep knows its own weight bound 2^lw, so declare it instead
		// of letting the runtime re-scan the weights (and pin Config.MaxWeight
		// on a real call site).
		cfg := maxis.Config{Seed: opts.seed(), MIS: alg, MaxWeight: int64(1) << uint(lw)}
		base, err := maxis.BarYehuda(g, cfg)
		if err != nil {
			return nil, err
		}
		fast, err := maxis.Theorem2(g, 1, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fi(lw), fi(int(base.Extra["scales"])), fi(base.Metrics.Rounds),
			fi(maxis.BudgetBarYehuda(alg, g.N(), g.MaxDegree(), g.MaxWeight())),
			fi(fast.Metrics.Rounds),
			fi(maxis.BudgetTheorem2(alg, g.N(), deltaH, 1)),
		})
	}
	return t, nil
}

// runE13 is the headline comparison: computing a full MIS versus a
// (1+ε)Δ-approximate MaxIS, in rounds, as n grows — the "exponentially
// easier than MIS" claim of the abstract.
func runE13(opts Options) (*Table, error) {
	sizes := []int{512, 1024, 2048, 4096, 8192, 16384, 32768}
	if opts.Quick {
		sizes = []int{512, 2048}
	}
	t := &Table{
		ID:    "E13",
		Title: "Headline: (1+ε)Δ-approx MaxIS vs full MIS (unweighted)",
		Claim: "Finding a (1+ε)Δ-approximation for MaxIS is exponentially easier than MIS (via the Ω(√(log n/log log n)) MIS lower bound of [31])",
		Columns: []string{
			"n", "Δ", "MIS rounds (Luby)", "MIS rounds (Ghaffari)",
			"thm5 rounds (ε=0.5)", "thm2 rounds (ε=0.5)", "log₂n", "√(log n/loglog n)",
		},
	}
	for _, n := range sizes {
		g := gen.GNP(n, 12/float64(n), opts.seed())
		luby, err := mis.Compute(mis.Luby{}, g, congest.Config{})
		if err != nil {
			return nil, err
		}
		ghaf, err := mis.Compute(mis.Ghaffari{}, g, congest.Config{})
		if err != nil {
			return nil, err
		}
		thm5, err := maxis.Theorem5(g, 0.5, maxis.Config{Seed: opts.seed()})
		if err != nil {
			return nil, err
		}
		thm2, err := maxis.Theorem2(g, 0.5, maxis.Config{Seed: opts.seed(), MIS: mis.Ghaffari{}})
		if err != nil {
			return nil, err
		}
		logn := math.Log2(float64(n))
		t.Rows = append(t.Rows, []string{
			fi(n), fi(g.MaxDegree()),
			fi(luby.Exec.Rounds), fi(ghaf.Exec.Rounds),
			fi(thm5.Metrics.Rounds), fi(thm2.Metrics.Rounds),
			ff(logn), ff(math.Sqrt(logn / math.Log2(logn))),
		})
	}
	t.Notes = append(t.Notes,
		"Theorem 5's round count is flat in n, but at these sizes neither MIS algorithm grows with log n either: Luby's count moves up and down without a trend and Ghaffari's stays flat over most sizes. The table therefore shows Theorem 5 within a small constant of full MIS, not the exponential separation, which is asymptotic (a true lower-bound curve cannot be measured, only the upper-bound side).",
	)
	return t, nil
}
