package experiments

import (
	"distmwis/internal/coloring"
	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/stats"
)

// runE14 reproduces the Section 8 / Open Question 2 observation: a
// (Δ+1)-colouring yields a (Δ+1)-approximation by taking the heaviest
// colour class, but selecting that class distributedly costs Θ(D) rounds —
// while the paper's Theorem 2 pipeline is diameter-independent.
func runE14(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Colour-class MaxIS approximation and the Ω(D) barrier (Section 8, Open Question 2)",
		Claim: "max-weight colour class is a (Δ+1)-approx, but finding it requires Ω(D) rounds; Theorem 2 does not",
		Columns: []string{
			"graph", "n", "Δ", "diameter proxy (tree depth)", "class weight",
			"w(V)/(Δ+1)", "≥ bound", "colour+select rounds", "thm2 rounds",
		},
	}
	type workload struct {
		name string
		g    *graph.Graph
	}
	workloads := []workload{
		{name: "path", g: gen.Weighted(gen.Path(600), gen.UniformWeights(100), opts.seed())},
		{name: "grid", g: gen.Weighted(gen.Grid(24, 24), gen.UniformWeights(100), opts.seed()+1)},
		{name: "torus", g: gen.Weighted(gen.Torus(24, 24), gen.UniformWeights(100), opts.seed()+2)},
		{name: "hypercube", g: gen.Weighted(gen.Hypercube(9), gen.UniformWeights(100), opts.seed()+3)},
	}
	if opts.Quick {
		workloads = workloads[:2]
	}
	for _, wl := range workloads {
		g := wl.g
		set, rounds, depth, err := coloring.ColorClassApprox(g, opts.seed())
		if err != nil {
			return nil, err
		}
		classW := g.SetWeight(set)
		bound := float64(g.TotalWeight()) / float64(g.MaxDegree()+1)
		fast, err := maxis.Theorem2(g, 1, maxis.Config{Seed: opts.seed()})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			wl.name, fi(g.N()), fi(g.MaxDegree()), fi(depth),
			f64(classW), ff(bound), fbool(float64(classW) >= bound-1e-9),
			fi(rounds), fi(fast.Metrics.Rounds),
		})
	}
	t.Notes = append(t.Notes,
		"The colour-class pipeline (randomized (Δ+1)-colouring, BFS-tree flooding, pipelined convergecast of k class weights, winner broadcast) pays ≈ 2D+k rounds on the path while Theorem 2's rounds are flat — the distributed gap that Open Question 2 formalizes.",
	)
	return t, nil
}

// runE15 exercises the log* machinery of Section 7: Cole–Vishkin
// deterministically 3-colours an oriented ring in O(log* n) rounds and
// yields an MIS of the cycle in O(log* n) — the upper bound matching
// Linial's and Naor's Ω(log* n) lower bounds (Theorem 7) that the paper's
// reduction relies on.
func runE15(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "log* machinery on the cycle: Cole–Vishkin and ring MIS (Section 7 upper-bound side)",
		Claim: "3-colouring and MIS of the oriented ring in O(log* n) rounds; Naor's bound says ≥ ½log*n − 4 rounds",
		Columns: []string{
			"n", "log* n", "CV rounds", "colours", "ring-MIS rounds (total)",
			"Naor lower bound ½log*n−4", "MIS valid",
		},
	}
	sizes := []int{8, 64, 1024, 1 << 14, 1 << 17}
	if opts.Quick {
		sizes = []int{8, 1024}
	}
	for _, n := range sizes {
		g := gen.Cycle(n)
		ports := coloring.CanonicalRingSuccessorPorts(n)
		set, totalRounds, col, err := coloring.RingMIS(g, ports, congest.Config{Seed: opts.seed()})
		if err != nil {
			return nil, err
		}
		valid := g.IsMaximalIS(set)
		ls := stats.LogStar(float64(n))
		naor := float64(ls)/2 - 4
		t.Rows = append(t.Rows, []string{
			fi(n), fi(ls), fi(col.Exec.Rounds), fi(col.NumColors),
			fi(totalRounds), ff(naor), fbool(valid),
		})
	}
	t.Notes = append(t.Notes,
		"Rounds grow by ≤ a couple over a 16000x increase in n — the log* shape. The deterministic MIS-on-a-ring cost is what the Section 7 reduction converts approximate-MaxIS algorithms into, and what Naor's lower bound prices from below.",
	)
	return t, nil
}
