package experiments

import (
	"distmwis/internal/fault"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
)

// runE18 exercises the fault-injection layer end to end: every hardened
// MaxIS pipeline is run under a sweep of message-loss rates crossed with
// crash fractions, and each output is validated with fault.SafetyReport
// against the fault-free run on the same seed. The safety claim is
// unconditional — independence must hold for every schedule — while the
// weight-retention column records how gracefully each algorithm degrades.
//
// The adversary schedule couples duplication and corruption to the loss
// rate (half each), crashes each node with probability CrashFrac at round
// 3 of every phase (each phase draws its own victims, keyed by node ID and
// the phase's seed), and caps blocked phases with the fault.HardStop
// budget so runs always terminate.
func runE18(opts Options) (*Table, error) {
	trials := opts.trials(3, 2)
	n := 512
	if opts.Quick {
		n = 192
	}
	g := gen.Weighted(gen.GNP(n, 8/float64(n), opts.seed()), gen.PolyWeights(2), opts.seed())
	losses := []float64{0, 0.02, 0.1, 0.3}
	crashFracs := []float64{0, 0.1}
	if opts.Quick {
		losses = []float64{0, 0.1}
	}
	if opts.FaultRate > 0 {
		losses = []float64{opts.FaultRate}
	}
	faultSeed := opts.FaultSeed
	if faultSeed == 0 {
		faultSeed = opts.seed() + 77
	}

	// Algorithms are addressed by registry name through maxis.Solve — the
	// same dispatch path as the CLI and the server; only the display label
	// is local.
	algs := []struct {
		name string
		alg  string
		eps  float64
	}{
		{"goodnodes", "goodnodes", 0},
		{"theorem1(eps=1)", "theorem1", 1},
		{"bar-yehuda", "baseline", 0},
	}

	t := &Table{
		ID:    "E18",
		Title: "Graceful degradation under fault injection",
		Claim: "independence holds under every adversary schedule; only weight and rounds degrade",
		Columns: []string{
			"algorithm", "loss", "crash frac", "independent",
			"retention (mean)", "truncated phases", "lost", "corrupted", "duplicated",
		},
	}

	for _, alg := range algs {
		baseline := make([]int64, trials)
		for trial := 0; trial < trials; trial++ {
			res, err := maxis.Solve(alg.alg, g, alg.eps, 0, maxis.Config{Seed: opts.seed() + uint64(trial)})
			if err != nil {
				return nil, err
			}
			baseline[trial] = res.Weight
		}
		for _, loss := range losses {
			for _, cf := range crashFracs {
				var stats fault.Stats
				allIndependent := true
				sumRetention := 0.0
				truncations := 0
				for trial := 0; trial < trials; trial++ {
					cfg := maxis.Config{
						Seed:       opts.seed() + uint64(trial),
						FaultStats: &stats,
						Faults: fault.Schedule{
							Seed:      faultSeed + uint64(trial),
							Loss:      loss,
							Dup:       loss / 2,
							Corrupt:   loss / 2,
							CrashFrac: cf,
							CrashAt:   3,
						},
					}
					res, err := maxis.Solve(alg.alg, g, alg.eps, 0, cfg)
					if err != nil {
						return nil, err
					}
					rep := fault.Compare(g, res.Set, baseline[trial], res.Metrics.Truncations > 0)
					if err := rep.Err(); err != nil {
						return nil, err
					}
					if !rep.Independent {
						allIndependent = false
					}
					sumRetention += rep.Retention
					truncations += res.Metrics.Truncations
				}
				t.Rows = append(t.Rows, []string{
					alg.name, ff(loss), ff(cf), fbool(allIndependent),
					ff(sumRetention / float64(trials)), fi(truncations),
					f64(stats.Lost), f64(stats.Corrupted), f64(stats.Duplicated),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"Adversary: per-edge loss p, duplication p/2, corruption p/2 (CRC-8 makes every corruption a detectable loss), crash-stop of each node with the given probability at round 3 of each phase.",
		"Retention is w(I_faulty)/w(I_fault-free) on the same seed; the loss=0, crash=0 rows are the control (retention 1).",
		"Independence is re-validated host-side for every run via fault.SafetyReport; a violation fails the experiment.",
		"Retention slightly above 1 is expected for the local-ratio pipelines: faults perturb which maximal sets the MIS phases find, which can land on a heavier stack than the fault-free run.",
	)
	return t, nil
}
