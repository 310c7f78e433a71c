// Package fault_test is an external test package: it exercises the fault
// layer through MIS protocols, and internal/mis now reaches back to this
// package via internal/protocol, so an in-package test would be an import
// cycle.
package fault_test

import (
	"reflect"
	"testing"

	"distmwis/internal/congest"
	. "distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/mis"
	"distmwis/internal/wire"
)

// floodMax floods the maximum ID for a fixed number of rounds; a simple
// deterministic protocol for worker-count identity tests.
type floodMax struct {
	info   congest.NodeInfo
	best   uint64
	rounds int
}

func (p *floodMax) Init(info congest.NodeInfo) {
	p.info = info
	p.best = info.ID
}

func (p *floodMax) Round(round int, recv []*congest.Message) bool {
	for _, m := range recv {
		if m == nil {
			continue
		}
		id, err := m.Reader().ReadUint(p.info.MaxID)
		if err != nil {
			continue
		}
		if id > p.best {
			p.best = id
		}
	}
	if round > p.rounds {
		return true
	}
	var w wire.Writer
	w.WriteUint(p.best, p.info.MaxID)
	p.info.Broadcast(&w)
	return false
}

// floodOutput is a floodMax run's Result with every node's best ID.
type floodOutput struct {
	*congest.Result
	Outputs []uint64
}

// runFlood runs floodMax on g, collecting every node's best ID.
func runFlood(g *graph.Graph, set func(*floodMax), c congest.Config) (*floodOutput, error) {
	best := make([]uint64, g.N())
	res, err := congest.Run(g, set, c, func(v int, p *floodMax) { best[v] = p.best })
	if err != nil {
		return nil, err
	}
	return &floodOutput{Result: res, Outputs: best}, nil
}

// TestZeroScheduleIdentity is the acceptance criterion for the delivery
// hook: installing an injector with an empty schedule must leave protocol
// outputs byte-identical to a run without any injector, with one worker and
// with eight.
func TestZeroScheduleIdentity(t *testing.T) {
	g := gen.GNP(200, 0.04, 11)
	newProc := func(p *floodMax) { p.rounds = 12 }
	clean, err := runFlood(g, newProc, congest.Config{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{name: "sequential", workers: 1},
		{name: "pool", workers: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := NewInjector(Schedule{Seed: 99})
			res, err := runFlood(g, newProc, congest.Config{Seed: 5, Workers: tc.workers, Hook: inj})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(clean.Outputs, res.Outputs) {
				t.Error("zero-schedule injector changed protocol outputs")
			}
			if res.FaultLost != 0 || res.FaultCorrupted != 0 || res.FaultDuplicated != 0 {
				t.Error("zero-schedule injector reported interventions")
			}
		})
	}
}

// TestReplayDeterminism: the same schedule, graph and seed reproduce the
// exact same outputs and fault counters, independent of the worker count.
func TestReplayDeterminism(t *testing.T) {
	g := gen.GNP(150, 0.05, 3)
	sched := Schedule{Seed: 42, Loss: 0.2, Dup: 0.1, Corrupt: 0.1, CrashFrac: 0.1, CrashAt: 2}
	run := func(workers int) (*floodOutput, Stats) {
		inj := NewInjector(sched)
		res, err := runFlood(g, func(p *floodMax) { p.rounds = 10 },
			congest.Config{Seed: 7, Hook: inj, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res, inj.Stats()
	}
	a, sa := run(1)
	b, sb := run(1)
	c, sc := run(4)
	if !reflect.DeepEqual(a.Outputs, b.Outputs) || sa != sb {
		t.Error("same schedule did not replay identically")
	}
	if !reflect.DeepEqual(a.Outputs, c.Outputs) || sa != sc {
		t.Error("fault injection depends on the worker count")
	}
	if sa.Lost == 0 || sa.Duplicated == 0 || sa.Corrupted == 0 {
		t.Errorf("schedule injected nothing: %+v", sa)
	}
	if a.FaultLost == 0 {
		t.Error("result carries no fault counters")
	}
}

// TestMISIndependenceUnderFaults: the hardened MIS protocols keep their
// safety invariant under aggressive schedules, including truncation.
func TestMISIndependenceUnderFaults(t *testing.T) {
	g := gen.GNP(120, 0.06, 17)
	scheds := []Schedule{
		{Seed: 1, Loss: 0.3, Dup: 0.15, Corrupt: 0.15},
		{Seed: 2, CrashFrac: 0.25, CrashAt: 2},
		{Seed: 3, CrashFrac: 0.2, CrashAt: 2, CrashBack: 5},
		{Seed: 4, Loss: 0.5, CrashFrac: 0.2, CrashAt: 1, MaxRounds: 6},
	}
	for _, alg := range []mis.Algorithm{mis.Luby{}, mis.Ghaffari{}, mis.Rank{}, mis.GreedyByID{}} {
		for i, sched := range scheds {
			inj := NewInjector(sched)
			res, err := runMIS(alg, g, congest.Config{Seed: 23, Hook: inj, HardStop: sched.HardStop(g.N())})
			if err != nil {
				t.Fatalf("%s schedule %d: %v", alg.Name(), i, err)
			}
			set := res.Outputs
			if rep := CheckIndependence(g, set); !rep.Independent {
				t.Errorf("%s schedule %d: %v", alg.Name(), i, rep.Err())
			}
		}
	}
}

// TestFaultsKeyedByID checks that a node meets the same drawn crash and the
// same message faults in any graph that contains it with its identifier:
// here, the whole graph and the subgraph induced by every third node.
func TestFaultsKeyedByID(t *testing.T) {
	g := gen.RandomIDs(gen.GNP(60, 0.1, 3), 1<<20, 5)
	keep := make([]bool, g.N())
	for v := range keep {
		keep[v] = v%3 == 0
	}
	sub := g.Induce(keep)
	sched := Schedule{Seed: 9, Loss: 0.3, Dup: 0.3, CrashFrac: 0.4, CrashAt: 2}
	whole, part := NewInjector(sched), NewInjector(sched)
	whole.Begin(g)
	part.Begin(sub.G)
	crashed := 0
	for j, v := range sub.ToParent {
		if a, b := whole.State(2, int(v)), part.State(2, j); a != b {
			t.Fatalf("node ID %d: state %v in the whole graph, %v in the subgraph", g.ID(int(v)), a, b)
		} else if a != congest.NodeUp {
			crashed++
		}
	}
	if crashed == 0 || crashed == len(sub.ToParent) {
		t.Fatalf("%d of %d nodes crashed at CrashFrac 0.4", crashed, len(sub.ToParent))
	}
	var w wire.Writer
	w.WriteUint(5, 7)
	m := congest.NewMessage(&w)
	for a := 0; a < sub.G.N(); a++ {
		for b := 0; b < sub.G.N(); b++ {
			for round := 1; round <= 3; round++ {
				wm, wd := whole.Deliver(round, int(sub.ToParent[a]), int(sub.ToParent[b]), m)
				pm, pd := part.Deliver(round, a, b, m)
				if (wm == nil) != (pm == nil) || wd != pd {
					t.Fatalf("round %d, %d→%d: whole graph (%v, %v), subgraph (%v, %v)", round, a, b, wm != nil, wd, pm != nil, pd)
				}
			}
		}
	}
}

func TestCrashStateWindows(t *testing.T) {
	inj := NewInjector(Schedule{Crashes: []Crash{
		{Node: 0, At: 3},          // crash-stop
		{Node: 1, At: 2, Back: 5}, // crash-recovery
	}})
	inj.Begin(gen.Path(4))
	cases := []struct {
		round, v int
		want     congest.NodeState
	}{
		{1, 0, congest.NodeUp},
		{2, 0, congest.NodeUp},
		{3, 0, congest.NodeStopped},
		{9, 0, congest.NodeStopped},
		{1, 1, congest.NodeUp},
		{2, 1, congest.NodeDown},
		{4, 1, congest.NodeDown},
		{5, 1, congest.NodeUp},
		{7, 2, congest.NodeUp},
	}
	for _, tc := range cases {
		if got := inj.State(tc.round, tc.v); got != tc.want {
			t.Errorf("State(%d, %d) = %v, want %v", tc.round, tc.v, got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Schedule{Loss: 1.5}).Validate(); err == nil {
		t.Error("accepted loss > 1")
	}
	if err := (Schedule{CrashFrac: -0.1}).Validate(); err == nil {
		t.Error("accepted negative crash fraction")
	}
	if err := (Schedule{Crashes: []Crash{{Node: 0, At: 5, Back: 4}}}).Validate(); err == nil {
		t.Error("accepted recovery before crash")
	}
	if err := (Schedule{CrashAt: 4, CrashBack: 2}).Validate(); err == nil {
		t.Error("accepted global recovery before crash")
	}
	if err := (Schedule{Loss: 0.5, Dup: 1, CrashAt: 2, CrashBack: 3}).Validate(); err != nil {
		t.Errorf("rejected valid schedule: %v", err)
	}
	if err := (Schedule{Crashes: []Crash{{Node: -1, At: 2}}}).Validate(); err == nil {
		t.Error("accepted negative crash node")
	}
	if err := (Schedule{Crashes: []Crash{{Node: 0, At: -3}}}).Validate(); err == nil {
		t.Error("accepted negative crash round")
	}
	if err := (Schedule{Crashes: []Crash{{Node: 2, At: 1}, {Node: 2, At: 5}}}).Validate(); err == nil {
		t.Error("accepted duplicate crash entries for one node")
	}
	if err := (Schedule{CrashAt: -1}).Validate(); err == nil {
		t.Error("accepted negative global crash round")
	}
}

func TestValidateFor(t *testing.T) {
	s := Schedule{Crashes: []Crash{{Node: 7, At: 2}}}
	if err := s.ValidateFor(8); err != nil {
		t.Errorf("rejected in-range crash node: %v", err)
	}
	if err := s.ValidateFor(7); err == nil {
		t.Error("accepted out-of-range crash node")
	}
	// ValidateFor must also run the plain checks.
	if err := (Schedule{Loss: 2}).ValidateFor(10); err == nil {
		t.Error("ValidateFor skipped probability checks")
	}
}

func TestScheduleEnabled(t *testing.T) {
	if (Schedule{Seed: 9}).Enabled() {
		t.Error("seed-only schedule reported enabled")
	}
	for _, s := range []Schedule{
		{Loss: 0.1}, {Dup: 0.1}, {Corrupt: 0.1}, {CrashFrac: 0.1},
		{Crashes: []Crash{{Node: 0, At: 1}}}, {MaxRounds: 5},
	} {
		if !s.Enabled() {
			t.Errorf("schedule %+v reported disabled", s)
		}
	}
}

// FuzzInjectorCorruptDetect: for arbitrary payloads and coordinates, the
// corruption path never panics, never violates the bandwidth (the bit
// length is preserved), and never produces a payload that still passes the
// original checksum — corrupt is always detectable loss.
func FuzzInjectorCorruptDetect(f *testing.F) {
	f.Add([]byte{0xAB, 0xCD}, 13, uint64(7), 3, 0, 1)
	f.Add([]byte{0x01}, 1, uint64(0), 1, 5, 9)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 32, uint64(1234), 100, 2, 2)
	f.Fuzz(func(t *testing.T, data []byte, nbits int, seed uint64, round, from, to int) {
		if len(data) == 0 {
			return
		}
		if nbits < 1 {
			nbits = 1
		}
		if nbits > len(data)*8 {
			nbits = len(data) * 8
		}
		m := congest.NewRawMessage(data, nbits)
		sum := wire.Checksum(data, nbits)
		inj := NewInjector(Schedule{Seed: seed, Corrupt: 1})
		inj.Begin(gen.Cycle(8))
		out, dup := inj.Deliver(round, int(uint(from)%8), int(uint(to)%8), m)
		if dup {
			t.Fatal("corrupt-only schedule requested a duplicate")
		}
		if out == nil {
			t.Fatal("corrupt-only schedule dropped the message")
		}
		if out.Bits() != nbits {
			t.Fatalf("corruption changed the bit length: %d -> %d", nbits, out.Bits())
		}
		if wire.Checksum(out.Data(), nbits) == sum {
			t.Fatal("flipped payload still passes the original checksum")
		}
	})
}

func TestSpecSchedule(t *testing.T) {
	got := Spec{Loss: 0.1, Crash: 0.2, Back: 6}.Schedule(5)
	want := Schedule{Seed: 82, Loss: 0.1, CrashFrac: 0.2, CrashAt: 3, CrashBack: 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("derived schedule %+v, want %+v", got, want)
	}
	if s := (Spec{Seed: 9}).Schedule(5); s.Seed != 9 {
		t.Errorf("explicit adversary seed replaced: %d", s.Seed)
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
