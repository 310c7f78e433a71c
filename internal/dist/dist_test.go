package dist_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"distmwis/internal/congest"
	. "distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/mis"
)

func TestAccumulatorAbsorbAndAdd(t *testing.T) {
	var a Accumulator
	a.Absorb(&congest.Result{Counters: congest.Counters{Rounds: 5, Messages: 10, Bits: 100, MaxMessageBits: 12,
		Retransmits: 7, TransportAcks: 4, Recoveries: 1, ReplayedRounds: 3, DeadPorts: 2}})
	a.Absorb(&congest.Result{Counters: congest.Counters{Rounds: 3, Messages: 2, Bits: 20, MaxMessageBits: 30}})
	a.AddRounds(2)
	if a.Rounds != 10 || a.Messages != 12 || a.Bits != 120 || a.MaxMessageBits != 30 || a.Phases != 2 {
		t.Errorf("accumulator wrong: %+v", a)
	}
	if a.Retransmits != 7 || a.TransportAcks != 4 || a.Recoveries != 1 || a.ReplayedRounds != 3 || a.DeadPorts != 2 {
		t.Errorf("transport counters not absorbed: %+v", a)
	}
	var b Accumulator
	b.Add(a)
	b.Add(a)
	if b.Rounds != 20 || b.Phases != 4 || b.MaxMessageBits != 30 {
		t.Errorf("Add wrong: %+v", b)
	}
	if b.Retransmits != 14 || b.TransportAcks != 8 || b.Recoveries != 2 || b.ReplayedRounds != 6 || b.DeadPorts != 4 {
		t.Errorf("transport counters not merged: %+v", b)
	}
	if b.String() == "" {
		t.Error("empty String()")
	}

	// A Result with every counter non-zero arrives whole, and a truncated
	// run counts as a truncation.
	whole := congest.Counters{Rounds: 1, Messages: 2, Bits: 3, MaxMessageBits: 4,
		FaultLost: 5, FaultCorrupted: 6, FaultDuplicated: 7, Retransmits: 8,
		TransportAcks: 9, Recoveries: 10, ReplayedRounds: 11, DeadPorts: 12}
	v := reflect.ValueOf(whole)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Fatalf("test result leaves %s zero", v.Type().Field(i).Name)
		}
	}
	var c Accumulator
	c.Absorb(&congest.Result{Counters: whole, Truncated: true})
	if want := (Accumulator{Counters: whole, Phases: 1, Truncations: 1}); c != want {
		t.Errorf("Absorb: %#v, want %#v", c, want)
	}
	var d Accumulator
	d.Add(c)
	if d != c {
		t.Errorf("Add: %#v, want %#v", d, c)
	}
}

func TestRunPhase(t *testing.T) {
	g := gen.Cycle(16)
	var acc Accumulator
	set, err := RunPhase(g, mis.Luby{}.Run, &acc, congest.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, g.N())
	res, err := mis.Luby{}.Run(g, congest.Config{Seed: 3}, want)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Rounds != res.Rounds || acc.Phases != 1 {
		t.Errorf("metrics not absorbed: %+v vs %d", acc, res.Rounds)
	}
	if !reflect.DeepEqual(set, want) {
		t.Errorf("RunPhase set %v, want the run's outputs %v", set, want)
	}
}

func TestRunPhaseErrorWrapped(t *testing.T) {
	g := gen.Cycle(4)
	var acc Accumulator
	_, err := RunPhase(g, mis.Luby{}.Run, &acc, congest.Config{MaxRounds: 1})
	if err == nil || !errors.Is(err, congest.ErrRoundLimit) {
		t.Errorf("expected wrapped ErrRoundLimit, got %v", err)
	}
}

// runLuby is a phase that runs Luby's MIS on the subgraph.
func runLuby(acc *Accumulator, c congest.Config) func(*graph.Graph) ([]bool, error) {
	return func(sub *graph.Graph) ([]bool, error) { return RunPhase(sub, mis.Luby{}.Run, acc, c) }
}

func TestRunOnInduced(t *testing.T) {
	g := gen.Path(10)
	active := make([]bool, 10)
	for v := 2; v <= 7; v++ {
		active[v] = true
	}
	var acc Accumulator
	set, err := RunOnInduced(g, active, nil, nil, &acc, runLuby(&acc, congest.Config{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// A scratch changes where the subgraph is built, not the answer.
	scratch := congest.NewScratch()
	defer scratch.Release()
	var inAcc Accumulator
	inScratch, err := RunOnInduced(g, active, nil, scratch, &inAcc, runLuby(&inAcc, congest.Config{Seed: 1, Scratch: scratch}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, inScratch) || inAcc != acc {
		t.Errorf("set %v, %v in a scratch, want %v, %v", inScratch, inAcc, set, acc)
	}
	sub := g.Induce(active)
	if sub.G.N() != 6 {
		t.Fatalf("induced size %d, want 6", sub.G.N())
	}
	// The lifted set must be inside the active region and an MIS of it.
	for v, in := range set {
		if in && !active[v] {
			t.Errorf("node %d outside active region selected", v)
		}
	}
	if err := mis.Verify(sub.G, func() []bool {
		out := make([]bool, sub.G.N())
		for i, pv := range sub.ToParent {
			out[i] = set[pv]
		}
		return out
	}()); err != nil {
		t.Error(err)
	}
	// One bookkeeping round charged on top of the protocol.
	if acc.Rounds < 2 || acc.Phases != 1 {
		t.Errorf("rounds %d, phases %d: want the flag round plus one run", acc.Rounds, acc.Phases)
	}
}

func TestRunOnInducedEmptyActive(t *testing.T) {
	g := gen.Cycle(8)
	var acc Accumulator
	ran := false
	set, err := RunOnInduced(g, make([]bool, 8), nil, nil, &acc, func(*graph.Graph) ([]bool, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("the phase ran on an empty subgraph")
	}
	if len(set) != g.N() || graph.SetSize(set) != 0 {
		t.Errorf("set %v, want %d false flags", set, g.N())
	}
	if acc != (Accumulator{Counters: congest.Counters{Rounds: 1}}) {
		t.Errorf("empty phase should charge exactly the flag round, got %+v", acc)
	}
}

// TestRunOnInducedCarriesWeightsAndLifts: the phase sees the kept nodes
// with the carried weights, and the set it returns lands on the parent
// indices of the subgraph nodes it names.
func TestRunOnInducedCarriesWeightsAndLifts(t *testing.T) {
	g := gen.Path(6)
	keep := []bool{false, true, false, true, true, false}
	weights := []int64{10, 11, 12, 13, 14, 15}
	set, err := RunOnInduced(g, keep, weights, nil, &Accumulator{}, func(sub *graph.Graph) ([]bool, error) {
		got := []int64{}
		for v := range sub.N() {
			got = append(got, sub.Weight(v))
		}
		if want := []int64{11, 13, 14}; !reflect.DeepEqual(got, want) {
			t.Errorf("phase saw weights %v, want %v", got, want)
		}
		return []bool{false, false, true}, nil // subgraph node 2 is g's node 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, false, false, false, true, false}; !reflect.DeepEqual(set, want) {
		t.Errorf("lifted set %v, want %v", set, want)
	}
	if g.Weight(1) != 1 {
		t.Errorf("carried weights leaked into g: w(1) = %d", g.Weight(1))
	}
}

// TestRunOnInducedErrorPops: a phase error comes back unchanged, and the
// subgraph is popped on that path too, so the next phase is built in the
// same scratch buffer.
func TestRunOnInducedErrorPops(t *testing.T) {
	g := gen.Cycle(8)
	keep := make([]bool, 8)
	keep[0], keep[1] = true, true
	scratch := congest.NewScratch()
	defer scratch.Release()
	boom := errors.New("boom")
	var failed, next *graph.Graph
	_, err := RunOnInduced(g, keep, nil, scratch, &Accumulator{}, func(sub *graph.Graph) ([]bool, error) {
		failed = sub
		return nil, boom
	})
	if err != boom {
		t.Fatalf("error %v, want the phase's own", err)
	}
	if _, err := RunOnInduced(g, keep, nil, scratch, &Accumulator{}, func(sub *graph.Graph) ([]bool, error) {
		next = sub
		return make([]bool, sub.N()), nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != failed {
		t.Error("the failed phase's subgraph was not popped: the next phase got a deeper buffer")
	}
}

// TestAccumulatorEmptyAbsorb: absorbing a zero Result must count the phase
// but leave every metric untouched — the paper's phase composition charges
// nothing for a protocol that sends nothing.
func TestAccumulatorEmptyAbsorb(t *testing.T) {
	var a Accumulator
	a.Absorb(&congest.Result{})
	if a.Phases != 1 {
		t.Fatalf("Phases = %d, want 1", a.Phases)
	}
	if a.Rounds != 0 || a.Messages != 0 || a.Bits != 0 || a.MaxMessageBits != 0 ||
		a.Truncations != 0 || a.FaultLost != 0 || a.Retransmits != 0 {
		t.Errorf("zero result perturbed metrics: %+v", a)
	}
	var b Accumulator
	b.Add(Accumulator{})
	if b != (Accumulator{}) {
		t.Errorf("Add(zero) perturbed metrics: %+v", b)
	}
}

// TestAccumulatorOverflowAdjacentSums: the int64 traffic counters must
// survive sums adjacent to math.MaxInt64 without losing precision. A long
// experiment sweep can legitimately accumulate huge bit totals; this pins
// that the halves recombine exactly below the overflow boundary.
func TestAccumulatorOverflowAdjacentSums(t *testing.T) {
	const half = math.MaxInt64 / 2 // 2^62 - 1
	var a Accumulator
	a.Absorb(&congest.Result{Counters: congest.Counters{Messages: half, Bits: half, FaultLost: half, Retransmits: half}})
	a.Absorb(&congest.Result{Counters: congest.Counters{Messages: half, Bits: half, FaultLost: half, Retransmits: half}})
	want := int64(2 * half) // MaxInt64 - 1: the largest even sum below overflow
	if a.Messages != want || a.Bits != want || a.FaultLost != want || a.Retransmits != want {
		t.Fatalf("overflow-adjacent absorb lost precision: %+v", a)
	}
	// One more unit lands exactly on MaxInt64.
	a.Add(Accumulator{Counters: congest.Counters{Messages: 1, Bits: 1, FaultLost: 1, Retransmits: 1}})
	if a.Messages != math.MaxInt64 || a.Bits != math.MaxInt64 ||
		a.FaultLost != math.MaxInt64 || a.Retransmits != math.MaxInt64 {
		t.Fatalf("sum to MaxInt64 wrong: %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String() on saturated accumulator")
	}
}

// TestAccumulatorMaxMessageBitsIsMaxNotSum: MaxMessageBits takes the max
// across phases rather than summing — regression guard for the reporting
// contract.
func TestAccumulatorMaxMessageBitsIsMaxNotSum(t *testing.T) {
	var a Accumulator
	a.Absorb(&congest.Result{Counters: congest.Counters{MaxMessageBits: 40}})
	a.Absorb(&congest.Result{Counters: congest.Counters{MaxMessageBits: 8}})
	a.Add(Accumulator{Counters: congest.Counters{MaxMessageBits: 25}})
	if a.MaxMessageBits != 40 {
		t.Errorf("MaxMessageBits = %d, want 40", a.MaxMessageBits)
	}
}
