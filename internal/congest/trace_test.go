package congest

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"distmwis/internal/graph/gen"
	"distmwis/internal/trace"
	"distmwis/internal/wire"
)

// labeledFlood is floodMax with a protocol-emitted stage annotation.
type labeledFlood struct{ floodMax }

func (p *labeledFlood) TracePhase(round int) string {
	if round%2 == 1 {
		return "flood"
	}
	return "absorb"
}

func TestTraceMatchesResultAggregates(t *testing.T) {
	g := gen.GNP(200, 0.05, 7)
	ring := trace.NewRing(0)
	res, err := RunOutputs(g, func(p *labeledFlood) { p.rounds = 12 },
		Config{Seed: 3, Tracer: ring, TraceLabel: "flood-test"})
	if err != nil {
		t.Fatal(err)
	}

	rounds := ring.Rounds()
	if len(rounds) != res.Rounds {
		t.Fatalf("trace has %d records, Result.Rounds = %d", len(rounds), res.Rounds)
	}
	var msgs, bits int64
	var halts, maxBits int
	for i, r := range rounds {
		if r.Round != i+1 {
			t.Errorf("record %d has round %d, want %d", i, r.Round, i+1)
		}
		if r.Label != "flood-test" {
			t.Errorf("record %d label = %q, want flood-test", i, r.Label)
		}
		wantPhase := "flood"
		if (i+1)%2 == 0 {
			wantPhase = "absorb"
		}
		if r.Phase != wantPhase {
			t.Errorf("round %d phase = %q, want %q", r.Round, r.Phase, wantPhase)
		}
		msgs += r.Messages
		bits += r.Bits
		halts += r.Halts
		if r.MaxMessageBits > maxBits {
			maxBits = r.MaxMessageBits
		}
	}
	if msgs != res.Messages {
		t.Errorf("per-round messages sum to %d, Result.Messages = %d", msgs, res.Messages)
	}
	if bits != res.Bits {
		t.Errorf("per-round bits sum to %d, Result.Bits = %d", bits, res.Bits)
	}
	if maxBits != res.MaxMessageBits {
		t.Errorf("per-round max = %d, Result.MaxMessageBits = %d", maxBits, res.MaxMessageBits)
	}
	if halts != g.N() {
		t.Errorf("halts sum to %d, want every node (%d)", halts, g.N())
	}

	runs := ring.Runs()
	if len(runs) != 1 || runs[0].Label != "flood-test" || runs[0].N != g.N() {
		t.Errorf("run metadata = %+v", runs)
	}
	if runs[0].Bandwidth != res.Bandwidth {
		t.Errorf("traced bandwidth %d != result bandwidth %d", runs[0].Bandwidth, res.Bandwidth)
	}
	sums := ring.Summaries()
	if len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1", len(sums))
	}
	if sums[0].Rounds != res.Rounds || sums[0].Bits != res.Bits || sums[0].Truncated {
		t.Errorf("summary %+v disagrees with result", sums[0])
	}
}

// stripTiming zeroes the wall-clock fields, which legitimately differ
// between worker counts and runs.
func stripTiming(rounds []trace.Round) []trace.Round {
	out := make([]trace.Round, len(rounds))
	for i, r := range rounds {
		r.ComputeNanos, r.DeliveryNanos = 0, 0
		out[i] = r
	}
	return out
}

// TestTraceEngineParity checks that the worker count changes no traced
// round and that RunInfo.Workers reports the resolved count.
func TestTraceEngineParity(t *testing.T) {
	g := gen.GNP(300, 0.03, 5)
	record := func(workers int) ([]trace.Round, int) {
		ring := trace.NewRing(0)
		_, err := RunOutputs(g, func(p *labeledFlood) { p.rounds = 8 },
			Config{Seed: 9, Workers: workers, Tracer: ring})
		if err != nil {
			t.Fatal(err)
		}
		runs := ring.Runs()
		if len(runs) != 1 {
			t.Fatalf("runs = %d, want 1", len(runs))
		}
		return stripTiming(ring.Rounds()), runs[0].Workers
	}
	seq, seqWorkers := record(1)
	if seqWorkers != 1 {
		t.Errorf("RunInfo.Workers = %d, want 1", seqWorkers)
	}
	for _, workers := range []int{2, 8} {
		got, resolved := record(workers)
		if resolved != workers {
			t.Errorf("RunInfo.Workers = %d, want %d", resolved, workers)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("%d-worker trace differs from the 1-worker trace", workers)
		}
	}
}

func TestTracerAbsentIsBitIdentical(t *testing.T) {
	g := gen.GNP(150, 0.05, 11)
	plain, err := RunOutputs(g, func(p *floodMax) { p.rounds = 6 }, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunOutputs(g, func(p *floodMax) { p.rounds = 6 }, Config{Seed: 4, Tracer: trace.NewRing(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracer changed the Result:\nplain  %+v\ntraced %+v", plain, traced)
	}
}

func TestTraceEndRunOnTruncation(t *testing.T) {
	ring := trace.NewRing(0)
	g := gen.Path(20)
	res, err := RunOutputs(g, func(p *floodMax) { p.rounds = 50 },
		Config{HardStop: 5, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if got := len(ring.Rounds()); got != 5 {
		t.Errorf("records = %d, want 5", got)
	}
	sums := ring.Summaries()
	if len(sums) != 1 || !sums[0].Truncated || sums[0].Rounds != 5 {
		t.Errorf("summary = %+v, want truncated 5-round summary", sums)
	}
}

func TestTraceRecordsFaultDrops(t *testing.T) {
	ring := trace.NewRing(0)
	res, err := RunOutputs(gen.Path(10), func(p *floodMax) { p.rounds = 10 },
		Config{Hook: &stubHook{dropFrom: 0, crashNode: -1}, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	var lost int64
	for _, r := range ring.Rounds() {
		lost += r.FaultLost
	}
	if lost == 0 || lost != res.FaultLost {
		t.Errorf("per-round FaultLost sums to %d, Result has %d", lost, res.FaultLost)
	}
}

// maxWeightProbe reports the MaxWeight bound it was told.
type maxWeightProbe struct{ info NodeInfo }

func (p *maxWeightProbe) Init(info NodeInfo)         { p.info = info }
func (p *maxWeightProbe) Round(int, []*Message) bool { return true }
func (p *maxWeightProbe) Output() any                { return p.info.MaxWeight }

func TestWithMaxWeight(t *testing.T) {
	g := gen.Weighted(gen.Cycle(8), gen.UniformWeights(100), 3)
	trueMax := g.MaxWeight()

	// A sweep bound at least the true maximum is handed to every node
	// verbatim, decoupling wire sizing from the realized maximum.
	res, err := RunOutputs[maxWeightProbe](g, nil, Config{MaxWeight: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out.(int64) != 1<<20 {
			t.Fatalf("node %d told MaxWeight %d, want %d", v, out, int64(1)<<20)
		}
	}

	// A bound below the true maximum is a misconfiguration, not a silent
	// re-derivation.
	if _, err := RunOutputs[maxWeightProbe](g, nil, Config{MaxWeight: trueMax - 1}); err == nil {
		t.Error("expected error for MaxWeight below the true maximum")
	}
	if _, err := RunOutputs[maxWeightProbe](g, nil, Config{MaxWeight: -5}); err == nil {
		t.Error("expected error for negative MaxWeight")
	}

	// Default: the scan result.
	res, err = RunOutputs[maxWeightProbe](g, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[0].(int64); got != trueMax {
		t.Errorf("default MaxWeight = %d, want true max %d", got, trueMax)
	}
}

// TestPoolEngineClampsWorkers checks how a requested worker count resolves
// on a graph large enough for the pool — zero means GOMAXPROCS, negative
// counts run inline, counts above n are clamped to n — and that every
// resolved count matches the one-worker run.
func TestPoolEngineClampsWorkers(t *testing.T) {
	g := gen.Cycle(96)
	run := func(workers int) (*OutputResult, int) {
		ring := trace.NewRing(0)
		res, err := RunOutputs(g, func(p *floodMax) { p.rounds = 4 },
			Config{Workers: workers, Seed: 2, Tracer: ring})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, ring.Runs()[0].Workers
	}
	ref, _ := run(1)
	for _, tc := range []struct{ workers, resolved int }{
		{0, min(runtime.GOMAXPROCS(0), 96)}, {-3, 1}, {2, 2}, {500, 96},
	} {
		res, resolved := run(tc.workers)
		if resolved != tc.resolved {
			t.Errorf("workers=%d resolved to %d, want %d", tc.workers, resolved, tc.resolved)
		}
		if res.Rounds == 0 || !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: result differs from the 1-worker run", tc.workers)
		}
	}
}

// badAbove sends an oversized message from every node with Index >= from.
type badAbove struct {
	info NodeInfo
	from int
}

func (p *badAbove) Init(info NodeInfo) { p.info = info }

func (p *badAbove) Round(int, []*Message) bool {
	var w wire.Writer
	if p.info.Index >= p.from {
		for i := 0; i < 100; i++ {
			w.WriteBits(0xFFFF, 16)
		}
	} else {
		w.WriteBool(true)
	}
	p.info.Broadcast(&w)
	return true
}

func (p *badAbove) Output() any { return nil }

func TestDeterministicErrorSelection(t *testing.T) {
	g := gen.Cycle(100)
	const firstBad = 37
	for _, tc := range []struct {
		name string
		c    Config
	}{
		{name: "sequential", c: Config{Workers: 1}},
		{name: "pool", c: Config{Workers: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunOutputs(g, func(p *badAbove) { p.from = firstBad }, tc.c)
			if err == nil {
				t.Fatal("expected bandwidth violation")
			}
			want := fmt.Sprintf("node %d ", firstBad)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name the lowest-index failing node %d", err, firstBad)
			}
		})
	}
}

// BenchmarkRun pins the zero-overhead contract in numbers: the untraced
// variants must match the seed implementation, and the traced variants
// show the (small, opt-in) price of recording.
func BenchmarkRun(b *testing.B) {
	g := gen.GNP(256, 0.05, 3)
	bench := func(b *testing.B, c Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunOutputs(g, func(p *floodMax) { p.rounds = 8 }, c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { bench(b, Config{Workers: 1}) })
	b.Run("sequential-traced", func(b *testing.B) {
		bench(b, Config{Workers: 1, Tracer: trace.NewRing(0)})
	})
	b.Run("pool", func(b *testing.B) { bench(b, Config{Workers: 4}) })
	b.Run("pool-traced", func(b *testing.B) {
		bench(b, Config{Workers: 4, Tracer: trace.NewRing(0)})
	})
}
