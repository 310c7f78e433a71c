// Command maxis runs one distributed MaxIS approximation algorithm on one
// generated graph and reports the outcome: set weight, certified bounds,
// and CONGEST metrics (rounds, messages, bits, max message size).
//
// Usage examples:
//
//	maxis -graph gnp -n 1000 -p 0.05 -weights poly2 -alg theorem2 -eps 0.5
//	maxis -graph apollonian -n 500 -alg theorem3 -alpha 3 -eps 1
//	maxis -graph cycle -n 4096 -alg theorem5 -eps 0.25
//	maxis -graph clique -n 200 -weights uniform -maxw 1000 -alg baseline
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"distmwis/internal/exact"
	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/plan"
	"distmwis/internal/protocol"
	"distmwis/internal/trace"

	// Imported for their registry side effects: every solver and MIS black
	// box this command accepts comes from the protocol registry, so the
	// algorithm packages must be linked in.
	_ "distmwis/internal/mis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("maxis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphKind  = fs.String("graph", "gnp", strings.Join(gen.Kinds(), "|"))
		n          = fs.Int("n", 1000, "number of nodes (or per-dimension size)")
		p          = fs.Float64("p", 0.05, "edge probability for gnp")
		k          = fs.Int("k", 2, "forest count for -graph forests / legs for caterpillar / n1 for coc")
		weights    = fs.String("weights", "unit", strings.Join(gen.WeightFamilies(), "|"))
		maxW       = fs.Int64("maxw", 1000, "max weight for -weights uniform|skewed")
		algName    = fs.String("alg", "theorem2", "auto|"+strings.Join(maxis.AlgorithmNames(), "|"))
		eps        = fs.Float64("eps", 0.5, "epsilon for boosted algorithms")
		alpha      = fs.Int("alpha", 0, "arboricity bound for theorem3 (0 = degeneracy)")
		deadlineMS = fs.Int64("deadline-ms", 0, "work budget for -alg auto as a deadline (0 = unlimited)")
		seed       = fs.Uint64("seed", 1, "random seed")
		misName    = fs.String("mis", "luby", "MIS black box: "+strings.Join(protocol.Names(protocol.KindMIS), "|"))
		local      = fs.Bool("local", false, "LOCAL model (no bandwidth bound)")
		showOpt    = fs.Bool("opt", false, "also compute exact OPT (small graphs only)")
		doTrace    = fs.Bool("trace", false, "record a per-round trace and print the phase timeline")
		traceOut   = fs.String("trace-out", "", "write the per-round trace to a file (.csv → CSV, else JSON lines); implies -trace")

		faultRate    = fs.Float64("fault-rate", 0, "per-message loss probability (enables fault injection)")
		faultDup     = fs.Float64("fault-dup", 0, "per-message duplication probability")
		faultCorrupt = fs.Float64("fault-corrupt", 0, "per-message corruption probability (detected via CRC-8)")
		faultCrash   = fs.Float64("fault-crash", 0, "fraction of nodes crash-stopped at round 3 of each phase")
		faultBack    = fs.Int("fault-back", 0, "round crashed nodes recover at (0 = crash-stop)")
		faultSeed    = fs.Uint64("fault-seed", 0, "adversary seed (0 = derive from -seed)")

		reliableOn = fs.Bool("reliable", false, "install the ARQ transport: retransmit lost/corrupted messages until the execution matches the fault-free run")
		cpEvery    = fs.Int("checkpoint-every", 0, "with -reliable, snapshot process state every N logical rounds so crash-recovered nodes resync by replay")
		repair     = fs.Bool("repair", false, "run the self-healing monitor on the final set: conflicting edges withdraw their lower-weight endpoint")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateFlags(flagValues{
		alg: *algName, weights: *weights, eps: *eps, n: *n, maxW: *maxW,
		alpha: *alpha, checkpointEvery: *cpEvery, reliable: *reliableOn,
		faultBack: *faultBack, faultCrash: *faultCrash,
	}); err != nil {
		fmt.Fprintf(stderr, "maxis: %v\n", err)
		return 1
	}

	spec := gen.Spec{Kind: *graphKind, N: *n, P: *p, K: *k, Weights: *weights, MaxW: *maxW, Seed: *seed}
	g, err := spec.Build()
	if err != nil {
		fmt.Fprintf(stderr, "maxis: %v\n", err)
		return 1
	}

	misAlg, err := protocol.MISByName(*misName)
	if err != nil {
		fmt.Fprintf(stderr, "maxis: %v\n", err)
		return 1
	}
	cfg := maxis.Config{Seed: *seed, MIS: misAlg, Local: *local}
	// -alg auto resolves through the planner against the -deadline-ms
	// budget; the decision line shows what was picked and why it fits.
	if *algName == plan.Auto {
		d, err := plan.Choose(plan.Request{
			Profile:    protocol.ProfileOf(g),
			Params:     protocol.Params{Eps: *eps, Alpha: *alpha},
			Budget:     plan.ForDeadline(*deadlineMS, 0),
			MIS:        misAlg,
			AllowLocal: *local,
		})
		if err != nil {
			fmt.Fprintf(stderr, "maxis: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "planner: %s\n", d)
		*algName = d.Alg
	}
	// The uniform and skewed generators bound their weights by -maxw, so
	// the runtime can skip its own weight scan.
	cfg.MaxWeight = spec.WeightBound()
	var ring *trace.Ring
	if *doTrace || *traceOut != "" {
		ring = trace.NewRing(0)
		cfg.Tracer = ring
		cfg.TraceLabel = *algName
	}
	sched := fault.Spec{
		Loss: *faultRate, Dup: *faultDup, Corrupt: *faultCorrupt,
		Crash: *faultCrash, Back: *faultBack, Seed: *faultSeed,
	}.Schedule(*seed)
	var stats fault.Stats
	if err := sched.ValidateFor(g.N()); err != nil {
		fmt.Fprintf(stderr, "maxis: %v\n", err)
		return 1
	}
	if sched.Enabled() {
		cfg.Faults = sched
		cfg.FaultStats = &stats
	}
	cfg.Reliable = *reliableOn
	cfg.CheckpointEvery = *cpEvery
	cfg.Repair = *repair

	fmt.Fprintf(stdout, "graph: %s  n=%d m=%d Δ=%d W=%d w(V)=%d\n",
		*graphKind, g.N(), g.M(), g.MaxDegree(), g.MaxWeight(), g.TotalWeight())

	res, err := maxis.Solve(*algName, g, *eps, *alpha, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "maxis: %v\n", err)
		return 1
	}
	guarantee := maxis.GuaranteeString(*algName, g, *eps, *alpha, res)

	fmt.Fprintf(stdout, "algorithm: %s (mis=%s, eps=%g)\n", *algName, *misName, *eps)
	fmt.Fprintf(stdout, "independent set: size=%d weight=%d\n", graph.SetSize(res.Set), res.Weight)
	if guarantee != "" {
		fmt.Fprintf(stdout, "guarantee: %s\n", guarantee)
	}
	fmt.Fprintf(stdout, "rounds=%d messages=%d bits=%d maxMsgBits=%d phases=%d\n",
		res.Metrics.Rounds, res.Metrics.Messages, res.Metrics.Bits,
		res.Metrics.MaxMessageBits, res.Metrics.Phases)
	if sched.Enabled() {
		// Re-run fault-free on the same seed to quantify the degradation.
		cleanCfg := cfg
		cleanCfg.Faults = fault.Schedule{}
		cleanCfg.FaultStats = nil
		clean, err := maxis.Solve(*algName, g, *eps, *alpha, cleanCfg)
		if err != nil {
			fmt.Fprintf(stderr, "maxis: fault-free baseline: %v\n", err)
			return 1
		}
		rep := fault.Compare(g, res.Set, clean.Weight, res.Metrics.Truncations > 0)
		fmt.Fprintf(stdout, "faults: lost=%d corrupted=%d duplicated=%d truncatedPhases=%d\n",
			res.Metrics.FaultLost, res.Metrics.FaultCorrupted, res.Metrics.FaultDuplicated,
			res.Metrics.Truncations)
		if *reliableOn {
			fmt.Fprintf(stdout, "transport: retransmits=%d acks=%d recoveries=%d replayedRounds=%d deadPorts=%d\n",
				res.Metrics.Retransmits, res.Metrics.TransportAcks,
				res.Metrics.Recoveries, res.Metrics.ReplayedRounds, res.Metrics.DeadPorts)
		}
		fmt.Fprintf(stdout, "safety: independent=%t weight=%d fault-free=%d retention=%.3f\n",
			rep.Independent, rep.Weight, rep.Baseline, rep.Retention)
		if err := rep.Err(); err != nil {
			fmt.Fprintf(stderr, "maxis: %v\n", err)
			return 1
		}
	}
	keys := make([]string, 0, len(res.Extra))
	for key := range res.Extra {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(stdout, "  %s=%.2f\n", key, res.Extra[key])
	}
	if ring != nil {
		if *doTrace {
			fmt.Fprintf(stdout, "trace: %d runs, %d rounds recorded (%d evicted)\n",
				len(ring.Runs()), len(ring.Rounds()), ring.Dropped())
			fmt.Fprint(stdout, trace.Summarize(ring.Rounds()).String())
		}
		if *traceOut != "" {
			if err := writeTrace(*traceOut, ring.Rounds()); err != nil {
				fmt.Fprintf(stderr, "maxis: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace written to %s\n", *traceOut)
		}
	}
	if *showOpt {
		opt, _, err := exact.MWIS(g)
		if err != nil {
			fmt.Fprintf(stderr, "maxis: exact: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "OPT=%d ratio=%.3f\n", opt, float64(opt)/float64(res.Weight))
	} else {
		fmt.Fprintf(stdout, "certified OPT upper bound (clique cover)=%d\n", exact.CliqueCoverUpperBound(g))
	}
	return 0
}

// flagValues carries the flags that interact; validateFlags rejects
// combinations that would previously be silently ignored.
type flagValues struct {
	alg, weights    string
	eps             float64
	n               int
	maxW            int64
	alpha           int
	checkpointEvery int
	reliable        bool
	faultBack       int
	faultCrash      float64
}

// validateFlags fails fast on flag combinations that have no effect or no
// meaning, instead of running with them silently dropped.
func validateFlags(v flagValues) error {
	if v.n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", v.n)
	}
	if v.checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be non-negative, got %d", v.checkpointEvery)
	}
	if v.checkpointEvery > 0 && !v.reliable {
		return fmt.Errorf("-checkpoint-every only takes effect with -reliable; add -reliable or drop -checkpoint-every")
	}
	if v.faultBack < 0 {
		return fmt.Errorf("-fault-back must be non-negative, got %d", v.faultBack)
	}
	if v.faultBack > 0 && v.faultCrash == 0 {
		return fmt.Errorf("-fault-back only takes effect with -fault-crash > 0; set a crash fraction or drop -fault-back")
	}
	if v.alpha < 0 {
		return fmt.Errorf("-alpha must be non-negative, got %d", v.alpha)
	}
	// Per-algorithm parameter rules live with the algorithm's registry
	// entry, not here: whatever Normalize rejects is surfaced as a flag
	// error, with the parameter name rendered as the flag that carries it.
	// "auto" defers the choice (and its parameter check) to the planner.
	if v.alg == plan.Auto {
		return nil
	}
	solver, err := protocol.SolverByName(v.alg)
	if err != nil {
		return err
	}
	if _, err := solver.Normalize(protocol.Params{Eps: v.eps, Alpha: v.alpha}); err != nil {
		var perr *protocol.ParamError
		if errors.As(err, &perr) {
			return fmt.Errorf("-%s %s", perr.Param, perr.Detail)
		}
		return err
	}
	if (v.weights == "uniform" || v.weights == "skewed") && v.maxW <= 0 {
		return fmt.Errorf("-maxw must be positive for -weights %s, got %d", v.weights, v.maxW)
	}
	return nil
}

// writeTrace exports the recorded rounds: .csv files get RFC 4180 CSV,
// anything else JSON lines (one Round per line).
func writeTrace(path string, rounds []trace.Round) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = trace.WriteCSV(f, rounds)
	} else {
		err = trace.WriteJSONL(f, rounds)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
