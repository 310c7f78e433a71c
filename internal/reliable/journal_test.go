package reliable

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type walPayload struct {
	Graph string `json:"graph"`
	Seed  uint64 `json:"seed"`
}

func openTestWAL(t *testing.T, path string) (*WAL, []WALRecord) {
	t.Helper()
	w, pending, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", path, err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w, pending
}

func TestWALBeginCommitRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, pending := openTestWAL(t, path)
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending records", len(pending))
	}
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := w.Begin(id, walPayload{Graph: "gnp", Seed: 42}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit("job-2"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash simulation: reopen the file as a recovering process would.
	_, pending = openTestWAL(t, path)
	ids := make([]string, len(pending))
	for i, rec := range pending {
		ids[i] = rec.ID
		var p walPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			t.Fatalf("pending %s payload: %v", rec.ID, err)
		}
		if p.Graph != "gnp" || p.Seed != 42 {
			t.Fatalf("pending %s payload drifted: %+v", rec.ID, p)
		}
	}
	if got, want := strings.Join(ids, ","), "job-1,job-3"; got != want {
		t.Fatalf("pending = %s, want %s (append order, commits retired)", got, want)
	}
}

func TestWALCompactionOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _ := openTestWAL(t, path)
	for i := 0; i < 50; i++ {
		id := "job-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := w.Begin(id, walPayload{Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Begin("job-live", walPayload{Seed: 99}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	_, pending := openTestWAL(t, path)
	if len(pending) != 1 || pending[0].ID != "job-live" {
		t.Fatalf("pending = %+v, want the single live job", pending)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	recs, err := readWALFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Op != WALBegin || recs[0].ID != "job-live" {
		t.Fatalf("compacted journal contents = %+v, want only the live begin", recs)
	}
}

func TestWALToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _ := openTestWAL(t, path)
	if err := w.Begin("job-1", walPayload{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unparseable trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"begin","id":"job-2","da`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, pending := openTestWAL(t, path)
	if len(pending) != 1 || pending[0].ID != "job-1" {
		t.Fatalf("pending = %+v, want only the fully-written begin", pending)
	}
}

func TestWALCommitWithoutBegin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _ := openTestWAL(t, path)
	if err := w.Commit("job-ghost"); err != nil {
		t.Fatalf("commit without begin must be legal: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, pending := openTestWAL(t, path)
	if len(pending) != 0 {
		t.Fatalf("pending = %+v, want none", pending)
	}
}

func TestWALAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _ := openTestWAL(t, path)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Begin("job-1", nil); err == nil {
		t.Fatal("Begin after Close must fail")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close must be a no-op: %v", err)
	}
}

func TestWALApplyRetainedAcrossCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graphs.wal")
	w, _ := openTestWAL(t, path)
	for i := 0; i < 3; i++ {
		if err := w.Apply("mut-"+string(rune('1'+i)), walPayload{Graph: "patch", Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave a completed begin/commit pair: compaction must drop it
	// while keeping every apply record.
	if err := w.Begin("job-1", walPayload{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, retained := openTestWAL(t, path)
	applies := ApplyWAL(retained)
	if len(applies) != 3 {
		t.Fatalf("retained %d apply records, want 3: %+v", len(applies), retained)
	}
	for i, rec := range applies {
		if want := "mut-" + string(rune('1'+i)); rec.ID != want {
			t.Fatalf("apply order broken: got %s at %d, want %s", rec.ID, i, want)
		}
		var p walPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			t.Fatal(err)
		}
		if p.Seed != uint64(i) {
			t.Fatalf("apply %d payload drifted: %+v", i, p)
		}
	}
	if pending := PendingWAL(retained); len(pending) != 0 {
		t.Fatalf("committed begin survived compaction: %+v", pending)
	}
}

func TestWALRewriteSnapshotsApplyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graphs.wal")
	w, _ := openTestWAL(t, path)
	for i := 0; i < 20; i++ {
		if err := w.Apply("mut", walPayload{Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot: the twenty-mutation history collapses to one record.
	snap := WALRecord{Op: WALApply, ID: "snapshot", Data: json.RawMessage(`{"graph":"final"}`)}
	if err := w.Rewrite([]WALRecord{snap}); err != nil {
		t.Fatal(err)
	}
	// The WAL must remain appendable after a rewrite.
	if err := w.Apply("mut-after", walPayload{Seed: 99}); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, retained := openTestWAL(t, path)
	applies := ApplyWAL(retained)
	if len(applies) != 2 || applies[0].ID != "snapshot" || applies[1].ID != "mut-after" {
		t.Fatalf("rewritten journal = %+v, want [snapshot, mut-after]", applies)
	}
}

// A record longer than any fixed line buffer (here 17 MB) is acknowledged
// by Apply, so reopening the journal must read it back whole.
func TestWALReopensOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	w, _ := openTestWAL(t, path)
	big := walPayload{Graph: strings.Repeat("g", 17<<20), Seed: 7}
	if err := w.Apply("g-1", big); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, retained := openTestWAL(t, path)
	if len(retained) != 1 {
		t.Fatalf("retained %d records, want the oversized apply", len(retained))
	}
	var got walPayload
	if err := json.Unmarshal(retained[0].Data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Graph) != len(big.Graph) || got.Seed != big.Seed {
		t.Fatalf("oversized record read back as %d bytes, seed %d", len(got.Graph), got.Seed)
	}
}
