package reliable_test

import (
	"reflect"
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/mis"
	"distmwis/internal/reliable"
	"distmwis/internal/trace"
)

func testGraph(seed uint64) *graph.Graph {
	return gen.Weighted(gen.GNP(100, 0.05, seed), gen.PolyWeights(1), seed+1)
}

// TestTransparentNoFaults: with no fault injector the transport is purely
// pass-through for the logical execution — outputs are byte-identical to an
// unwrapped run, nothing is ever retransmitted, and the only cost is extra
// physical rounds and header bits.
func TestTransparentNoFaults(t *testing.T) {
	g := testGraph(7)
	for _, alg := range []mis.Algorithm{mis.Luby{}, mis.Rank{}} {
		plain, err := runMIS(alg, g, congest.Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := runMIS(alg, g, congest.Config{Seed: 5, Reliable: reliable.New(reliable.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Outputs, rel.Outputs) {
			t.Errorf("%s: reliable transport changed a fault-free execution", alg.Name())
		}
		if rel.Retransmits != 0 || rel.Recoveries != 0 || rel.DeadPorts != 0 {
			t.Errorf("%s: fault-free run reported recovery work: %+v", alg.Name(), rel)
		}
		if rel.Rounds < plain.Rounds {
			t.Errorf("%s: reliable run finished in %d rounds, plain needed %d", alg.Name(), rel.Rounds, plain.Rounds)
		}
	}
}

// TestExactRecoveryUnderFaults is the tentpole guarantee: under loss, dup
// and corrupt schedules the wrapped protocol produces exactly the outputs
// of the fault-free run — not a degraded approximation of them — because
// every logical round's messages are delivered exactly once.
func TestExactRecoveryUnderFaults(t *testing.T) {
	g := testGraph(11)
	scheds := []fault.Schedule{
		{Seed: 1, Loss: 0.2, Corrupt: 0.1},
		{Seed: 2, Loss: 0.3, Dup: 0.15, Corrupt: 0.15},
		{Seed: 3, Loss: 0.5},
		{Seed: 4, Dup: 0.5},
	}
	for _, alg := range []mis.Algorithm{mis.Luby{}, mis.Rank{}} {
		plain, err := runMIS(alg, g, congest.Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for i, sched := range scheds {
			inj := fault.NewInjector(sched)
			rel, err := runMIS(alg, g, congest.Config{Seed: 9, Hook: inj, Reliable: reliable.New(reliable.Options{})})
			if err != nil {
				t.Fatalf("%s schedule %d: %v", alg.Name(), i, err)
			}
			if rel.Truncated {
				t.Fatalf("%s schedule %d: truncated", alg.Name(), i)
			}
			if !reflect.DeepEqual(plain.Outputs, rel.Outputs) {
				t.Errorf("%s schedule %d: outputs differ from the fault-free run", alg.Name(), i)
			}
			if sched.Loss > 0 && rel.Retransmits == 0 {
				t.Errorf("%s schedule %d: loss %.2f but no retransmissions", alg.Name(), i, sched.Loss)
			}
			if rel.DeadPorts != 0 {
				t.Errorf("%s schedule %d: failure detector false positive (%d dead ports)", alg.Name(), i, rel.DeadPorts)
			}
		}
	}
}

// TestCrashRecoveryWithoutCheckpoint: crash-recovery downtime (state
// frozen, messages missed) is fully masked by retransmission alone — the
// recovering node resumes exactly where it stopped and the final outputs
// still match the fault-free run.
func TestCrashRecoveryWithoutCheckpoint(t *testing.T) {
	g := testGraph(13)
	plain, err := runMIS(mis.Luby{}, g, congest.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.Schedule{Seed: 8, Loss: 0.1, CrashFrac: 0.2, CrashAt: 3, CrashBack: 9})
	rel, err := runMIS(mis.Luby{}, g, congest.Config{Seed: 3, Hook: inj, Reliable: reliable.New(reliable.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Outputs, rel.Outputs) {
		t.Error("crash-recovery run differs from the fault-free run")
	}
	if rel.Recoveries != 0 {
		t.Errorf("checkpointing off but %d recoveries reported", rel.Recoveries)
	}
}

// TestCheckpointRestore: with CheckpointEvery set, a crash-recovery fault
// triggers the full amnesia-crash path — snapshot restore plus input-log
// replay — and still reproduces exactly the outputs of the same
// configuration without any faults.
func TestCheckpointRestore(t *testing.T) {
	g := testGraph(17)
	for _, alg := range []mis.Algorithm{mis.Luby{}, mis.Ghaffari{}, mis.Rank{}} {
		opts := reliable.Options{CheckpointEvery: 4}
		base, err := runMIS(alg, g, congest.Config{Seed: 21, Reliable: reliable.New(opts)})
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.NewInjector(fault.Schedule{Seed: 6, Loss: 0.15, CrashFrac: 0.25, CrashAt: 4, CrashBack: 11})
		rel, err := runMIS(alg, g, congest.Config{Seed: 21, Hook: inj, Reliable: reliable.New(opts)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Outputs, rel.Outputs) {
			t.Errorf("%s: checkpoint/restore recovery changed the outputs", alg.Name())
		}
		if rel.Recoveries == 0 {
			t.Errorf("%s: crash-recovery schedule but no checkpoint recoveries", alg.Name())
		}
		set := rel.Outputs
		if rep := fault.CheckIndependence(g, set); !rep.Independent {
			t.Errorf("%s: %v", alg.Name(), rep.Err())
		}
	}
}

// TestEngineAgreement: the transport's buffering and counters are
// deterministic and independent of the worker count, like everything else
// in the simulator.
func TestEngineAgreement(t *testing.T) {
	g := testGraph(19)
	sched := fault.Schedule{Seed: 5, Loss: 0.25, Dup: 0.1, Corrupt: 0.1, CrashFrac: 0.1, CrashAt: 3, CrashBack: 8}
	run := func(workers int) *misOutput {
		inj := fault.NewInjector(sched)
		res, err := runMIS(mis.Rank{}, g, congest.Config{Seed: 31, Hook: inj, Workers: workers, Reliable: reliable.New(reliable.Options{CheckpointEvery: 5})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, o := run(1), run(8)
	if !reflect.DeepEqual(a.Outputs, o.Outputs) {
		t.Error("8-worker outputs differ from 1 worker")
	}
	if a.Rounds != o.Rounds || a.Messages != o.Messages || a.Bits != o.Bits ||
		a.Retransmits != o.Retransmits || a.TransportAcks != o.TransportAcks ||
		a.Recoveries != o.Recoveries || a.ReplayedRounds != o.ReplayedRounds ||
		a.DeadPorts != o.DeadPorts {
		t.Errorf("8-worker counters differ from 1 worker:\n%+v\n%+v", a, o)
	}
}

// TestCrashStopRepair: crash-stop neighbours are eventually declared dead
// so survivors are not blocked forever. Nodes whose every informative
// neighbour crashed can still never decide (Luby joins only on full
// information), so the run ends at the hard stop with those nodes
// undecided; the residual safety violations this can cause in the
// non-defensive inner execution are healed by the monitor.
func TestCrashStopRepair(t *testing.T) {
	g := testGraph(23)
	inj := fault.NewInjector(fault.Schedule{Seed: 9, Loss: 0.2, CrashFrac: 0.25, CrashAt: 2})
	rel, err := runMIS(mis.Luby{}, g, congest.Config{Seed: 41, Hook: inj, Reliable: reliable.New(reliable.Options{}), HardStop: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if rel.DeadPorts == 0 {
		t.Error("crash-stop schedule but no ports declared dead")
	}
	set := rel.Outputs
	reliable.Repair(g, set)
	if rep := fault.CheckIndependence(g, set); !rep.Independent {
		t.Errorf("after repair: %v", rep.Err())
	}
	if again := reliable.Repair(g, set); again.Conflicts != 0 {
		t.Errorf("repair not idempotent: %d conflicts on second pass", again.Conflicts)
	}
}

// TestRepairRule pins the deterministic local repair rule: lower weight
// withdraws, ties withdraw the higher identifier (graph.Before).
func TestRepairRule(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetWeights([]int64{5, 9, 5})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set := []bool{true, true, true}
	rep := reliable.Repair(g, set)
	if !reflect.DeepEqual(set, []bool{false, true, false}) {
		t.Errorf("repair kept %v, want heaviest node only", set)
	}
	if rep.Conflicts != 2 || rep.Withdrawn != 2 || rep.WithdrawnWeight != 10 {
		t.Errorf("report %+v, want 2 conflicts, 2 withdrawn, weight 10", rep)
	}

	b = graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.SetWeights([]int64{7, 7})
	g, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set = []bool{true, true}
	reliable.Repair(g, set)
	if !set[0] || set[1] {
		t.Errorf("tie-break kept %v, want the lower identifier", set)
	}
}

// TestIsolatedNodes: degree-0 nodes have no transport work at all and halt
// with their inner process.
func TestIsolatedNodes(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1) // nodes 2..5 isolated
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runMIS(mis.Luby{}, g, congest.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.Schedule{Seed: 3, Loss: 0.3})
	rel, err := runMIS(mis.Luby{}, g, congest.Config{Seed: 2, Hook: inj, Reliable: reliable.New(reliable.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Outputs, rel.Outputs) {
		t.Error("outputs differ on a graph with isolated nodes")
	}
}

// TestTraceReconciliation (satellite): with both a tracer and the reliable
// layer installed, the per-round records reconcile exactly with the
// injector's own totals and with the transport counters in Result.
func TestTraceReconciliation(t *testing.T) {
	g := testGraph(29)
	ring := trace.NewRing(0)
	tot := &trace.Totals{}
	inj := fault.NewInjector(fault.Schedule{Seed: 12, Loss: 0.25, Dup: 0.1, Corrupt: 0.1})
	res, err := runMIS(mis.Rank{}, g, congest.Config{Seed: 14, Hook: inj, Reliable: reliable.New(reliable.Options{}), Tracer: trace.Tee{ring, tot}})
	if err != nil {
		t.Fatal(err)
	}
	var lost, corrupted, duplicated, retransmits, messages, bits int64
	for _, r := range ring.Rounds() {
		lost += r.FaultLost
		corrupted += r.FaultCorrupted
		duplicated += r.FaultDuplicated
		retransmits += r.Retransmits
		messages += r.Messages
		bits += r.Bits
	}
	if lost != res.FaultLost || corrupted != res.FaultCorrupted || duplicated != res.FaultDuplicated {
		t.Errorf("trace fault sums (%d,%d,%d) != result (%d,%d,%d)",
			lost, corrupted, duplicated, res.FaultLost, res.FaultCorrupted, res.FaultDuplicated)
	}
	if retransmits != res.Retransmits || retransmits != tot.Retransmits {
		t.Errorf("trace retransmit sum %d != result %d / totals %d", retransmits, res.Retransmits, tot.Retransmits)
	}
	if messages != res.Messages || bits != res.Bits {
		t.Errorf("trace traffic sums (%d,%d) != result (%d,%d)", messages, bits, res.Messages, res.Bits)
	}
	if res.Retransmits == 0 {
		t.Error("lossy schedule but no retransmissions recorded")
	}
	// Without crashes every drop is the adversary's: the injector's totals
	// match the simulator's exactly. (Duplicates scheduled into the very
	// last round are never flushed, so Result can lag Stats there.)
	st := inj.Stats()
	if res.FaultLost != st.Lost || res.FaultCorrupted != st.Corrupted {
		t.Errorf("result (%d lost, %d corrupted) != injector stats (%d, %d)",
			res.FaultLost, res.FaultCorrupted, st.Lost, st.Corrupted)
	}
	if res.FaultDuplicated > st.Duplicated {
		t.Errorf("result duplicated %d exceeds injector stats %d", res.FaultDuplicated, st.Duplicated)
	}
	// Retransmission rounds are annotated in the phase labels.
	labels := map[string]bool{}
	for _, r := range ring.Rounds() {
		labels[r.Phase] = true
	}
	if !labels["arq:retransmit"] && !labels["arq:stall"] && !labels["arq:drain"] {
		t.Errorf("no transport annotations in phase labels: %v", labels)
	}
}

// TestHeaderHeadroom: frames may exceed B by at most HeaderBits, and the
// widened bound is what the simulator enforces (MaxMessageBits proves the
// headroom is actually used by full-payload frames).
func TestHeaderHeadroom(t *testing.T) {
	g := testGraph(31)
	tr := reliable.New(reliable.Options{})
	res, err := runMIS(mis.Rank{}, g, congest.Config{Seed: 4, Reliable: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBits > res.Bandwidth+tr.HeaderBits() {
		t.Errorf("frame of %d bits exceeds B=%d plus header %d", res.MaxMessageBits, res.Bandwidth, tr.HeaderBits())
	}
}

func benchRun(b *testing.B, c congest.Config) {
	g := testGraph(37)
	b.ReportAllocs()
	c.Seed = 6
	for i := 0; i < b.N; i++ {
		if _, err := runMIS(mis.Luby{}, g, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlain vs BenchmarkReliableOff pins the zero-cost-when-off
// guarantee: Config{Reliable: nil} must be indistinguishable from no transport.
func BenchmarkPlain(b *testing.B)       { benchRun(b, congest.Config{}) }
func BenchmarkReliableOff(b *testing.B) { benchRun(b, congest.Config{Reliable: nil}) }
func BenchmarkReliableOn(b *testing.B) {
	benchRun(b, congest.Config{Reliable: reliable.New(reliable.Options{})})
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
