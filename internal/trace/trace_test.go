package trace

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func mkRound(run, round int, label, phase string, msgs, bits int64) Round {
	return Round{
		Run: run, Round: round, Label: label, Phase: phase,
		Messages: msgs, Bits: bits, MaxMessageBits: int(bits),
		ComputeNanos: 10, DeliveryNanos: 5,
	}
}

func TestRingKeepsChronologicalOrder(t *testing.T) {
	r := NewRing(4)
	if got := r.BeginRun(RunInfo{Label: "a", N: 3}); got != 0 {
		t.Errorf("first run index = %d, want 0", got)
	}
	for i := 1; i <= 10; i++ {
		r.OnRound(mkRound(0, i, "a", "", 1, int64(i)))
	}
	r.EndRun(Summary{Run: 0, Rounds: 10})

	rounds := r.Rounds()
	if len(rounds) != 4 {
		t.Fatalf("retained %d records, want capacity 4", len(rounds))
	}
	for i, rec := range rounds {
		if rec.Round != 7+i {
			t.Errorf("record %d is round %d, want %d (chronological tail)", i, rec.Round, 7+i)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	if len(r.Runs()) != 1 || len(r.Summaries()) != 1 {
		t.Error("run metadata not retained")
	}

	r.Reset()
	if len(r.Rounds()) != 0 || r.Dropped() != 0 || len(r.Runs()) != 0 {
		t.Error("Reset did not clear state")
	}
	if got := r.BeginRun(RunInfo{}); got != 0 {
		t.Errorf("run index after Reset = %d, want 0", got)
	}
}

func TestRingAssignsRunIndices(t *testing.T) {
	r := NewRing(0)
	for want := 0; want < 3; want++ {
		if got := r.BeginRun(RunInfo{}); got != want {
			t.Errorf("run index = %d, want %d", got, want)
		}
		r.EndRun(Summary{Run: want})
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Round{
		mkRound(0, 1, "goodnodes/detect", "", 8, 96),
		mkRound(0, 2, "goodnodes/mis", "mark", 8, 128),
		{Run: 1, Round: 1, FaultLost: 3, FaultCorrupted: 1, FaultDuplicated: 2},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Errorf("jsonl lines = %d, want %d", got, len(in))
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestCSVExport(t *testing.T) {
	in := []Round{
		mkRound(0, 1, "a,b", "ph\"ase", 4, 40),
		mkRound(0, 2, "", "", 0, 0),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("exported CSV does not parse: %v", err)
	}
	if len(rows) != len(in)+1 {
		t.Fatalf("csv rows = %d, want %d", len(rows), len(in)+1)
	}
	if rows[1][2] != "a,b" || rows[1][3] != "ph\"ase" {
		t.Errorf("special characters not preserved: %q %q", rows[1][2], rows[1][3])
	}
	if bits, _ := strconv.ParseInt(rows[1][5], 10, 64); bits != 40 {
		t.Errorf("bits column = %s, want 40", rows[1][5])
	}
}

func TestSummarizeGroupsAndTotals(t *testing.T) {
	rounds := []Round{
		mkRound(0, 1, "detect", "", 10, 100),
		mkRound(0, 2, "detect", "", 10, 60),
		mkRound(1, 1, "mis", "mark", 5, 300),
		mkRound(1, 2, "mis", "join", 5, 40),
		mkRound(1, 3, "mis", "mark", 5, 0),
	}
	tl := Summarize(rounds)
	if tl.Rounds != 5 || tl.Messages != 35 || tl.Bits != 500 {
		t.Errorf("totals = %d rounds %d msgs %d bits, want 5/35/500", tl.Rounds, tl.Messages, tl.Bits)
	}
	if tl.MaxMessageBits != 300 {
		t.Errorf("MaxMessageBits = %d, want 300", tl.MaxMessageBits)
	}
	keys := make([]string, len(tl.Totals))
	for i, pt := range tl.Totals {
		keys[i] = pt.Key()
	}
	want := []string{"detect", "mis:mark", "mis:join"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("group keys = %v, want %v (first-appearance order)", keys, want)
	}
	if tl.Totals[1].Rounds != 2 || tl.Totals[1].Bits != 300 {
		t.Errorf("mis:mark group = %d rounds %d bits, want 2/300", tl.Totals[1].Rounds, tl.Totals[1].Bits)
	}

	// Histogram: one zero round; bits 40,60,100,300 land in [32,64)x2... no:
	// 40 and 60 in [32,64), 100 in [64,128), 300 in [256,512).
	counts := map[string]int{}
	total := 0
	for _, h := range tl.BitsHist {
		counts[histKey(h)] = h.Count
		total += h.Count
	}
	if total != len(rounds) {
		t.Fatalf("histogram covers %d rounds, want %d", total, len(rounds))
	}
	for key, want := range map[string]int{"0": 1, "32-64": 2, "64-128": 1, "256-512": 1} {
		if counts[key] != want {
			t.Errorf("bucket %s count = %d, want %d (all: %v)", key, counts[key], want, counts)
		}
	}

	// The rendering mentions every group and histogram bar.
	s := tl.String()
	for _, k := range want {
		if !strings.Contains(s, k) {
			t.Errorf("String() missing group %q:\n%s", k, s)
		}
	}
}

func histKey(h HistBucket) string {
	if h.Hi == 0 {
		return "0"
	}
	return strconv.FormatInt(h.Lo, 10) + "-" + strconv.FormatInt(h.Hi, 10)
}

func TestSummarizeEmpty(t *testing.T) {
	tl := Summarize(nil)
	if tl.Rounds != 0 || len(tl.Totals) != 0 || tl.BitsHist != nil {
		t.Errorf("empty summarize = %+v, want zero timeline", tl)
	}
	_ = tl.String() // must not panic
}

func TestTotalsTracer(t *testing.T) {
	var tot Totals
	if got := tot.BeginRun(RunInfo{}); got != 0 {
		t.Errorf("run index = %d, want 0", got)
	}
	tot.OnRound(mkRound(0, 1, "", "", 3, 30))
	tot.OnRound(mkRound(0, 2, "", "", 4, 40))
	tot.EndRun(Summary{})
	if tot.Rounds != 2 || tot.Messages != 7 || tot.Bits != 70 {
		t.Errorf("totals = %d rounds / %d msgs / %d bits, want 2 / 7 / 70", tot.Rounds, tot.Messages, tot.Bits)
	}
	if tot.ComputeNanos != 20 || tot.DeliveryNanos != 10 {
		t.Errorf("timing totals = %d/%d, want 20/10", tot.ComputeNanos, tot.DeliveryNanos)
	}
}

func TestTeeFansOut(t *testing.T) {
	ring := NewRing(8)
	var tot Totals
	tee := Tee{ring, &tot}
	run := tee.BeginRun(RunInfo{Label: "x"})
	tee.OnRound(mkRound(run, 1, "x", "", 2, 20))
	tee.EndRun(Summary{Run: run, Rounds: 1})
	if len(ring.Rounds()) != 1 || tot.Rounds != 1 {
		t.Error("tee did not reach both tracers")
	}
}
