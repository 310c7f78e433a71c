package reliable

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// readRecords reads the journal at path without opening it for append.
func readRecords(t *testing.T, path string) []WALRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadWAL(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestWALGroupCommitAmortisesSyncs: appends that write their lines while a
// sync is in flight share the next sync, with no setup call, and every
// record is on disk when its append returns. The in-flight sync is held
// open by the test: on a filesystem whose fsync returns before the next
// append arrives (tmpfs) nothing would overlap, and no batch could form.
func TestWALGroupCommitAmortisesSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const appends = 64
	w.mu.Lock()
	w.syncing = true
	w.mu.Unlock()
	var wg sync.WaitGroup
	errs := make([]error, appends)
	for i := 0; i < appends; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Apply("gc", map[string]int{"i": i})
		}(i)
	}
	waitWritten(t, w, appends)
	finishStalledSync(w)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if recs := readRecords(t, path); len(recs) != appends {
		t.Fatalf("%d records on disk, want %d", len(recs), appends)
	}
	// One sync per append would be exactly 64; the first waiter to wake
	// syncs everything written.
	if syncs := w.Syncs(); syncs != 1 {
		t.Fatalf("%d syncs for %d appends written behind one in-flight sync, want 1", syncs, appends)
	}
}

// TestWALLoneAppendSyncsOnce: an append with no sync in flight issues its
// own sync at once and returns with nothing left pending.
func TestWALLoneAppendSyncsOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if err := w.Begin("solo", map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if w.Syncs() != 1 {
		t.Fatalf("Syncs = %d after one append, want 1", w.Syncs())
	}
	w.mu.Lock()
	written, synced, syncing := w.written, w.synced, w.syncing
	w.mu.Unlock()
	if written != 1 || synced != 1 || syncing {
		t.Fatalf("after a lone append: written %d synced %d syncing %v", written, synced, syncing)
	}
	if recs := readRecords(t, path); len(recs) != 1 || recs[0].ID != "solo" {
		t.Fatalf("on disk: %+v", recs)
	}
}

// stallSync marks a sync as in flight, as if another append's fsync had
// started before the next line was written, and starts an append that must
// wait behind it. It returns once that append has written its line, with
// the append's result channel.
func stallSync(t *testing.T, w *WAL, id string) <-chan error {
	t.Helper()
	w.mu.Lock()
	w.syncing = true
	w.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- w.Apply(id, map[string]int{"x": 1}) }()
	waitWritten(t, w, 1)
	return done
}

// waitWritten waits until n lines have been written to w.
func waitWritten(t *testing.T, w *WAL, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		written := w.written
		w.mu.Unlock()
		if written == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d lines written", written, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// finishStalledSync completes the sync stallSync put in flight. It covered
// nothing: it started before the waiting append's line was written.
func finishStalledSync(w *WAL) {
	w.mu.Lock()
	w.syncing = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// waitOp runs op in the background and checks it does not complete while
// the stalled sync is in flight; it then finishes that sync and returns
// op's result.
func waitOp(t *testing.T, w *WAL, op func() error) error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- op() }()
	select {
	case err := <-res:
		t.Fatalf("returned with a sync in flight (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	finishStalledSync(w)
	select {
	case err := <-res:
		return err
	case <-time.After(2 * time.Second):
		t.Fatal("hung after the in-flight sync completed")
	}
	return nil
}

// TestWALGroupCommitCloseFlushes: Close with a sync in flight waits for it,
// then syncs the line an append is still waiting on, releasing the waiter
// with its record on disk.
func TestWALGroupCommitCloseFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	done := stallSync(t, w, "pending")
	if err := waitOp(t, w, w.Close); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append failed across Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("append hung after Close")
	}
	if recs := readRecords(t, path); len(recs) != 1 || recs[0].ID != "pending" {
		t.Fatalf("on disk: %+v; the pre-Close append must be durable", recs)
	}
}

// TestWALGroupCommitRewriteFlushes: Rewrite with a sync in flight waits for
// it and syncs the waiting append's line before swapping files.
func TestWALGroupCommitRewriteFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The hard link keeps the pre-Rewrite file readable after the swap.
	old := path + ".old"
	if err := os.Link(path, old); err != nil {
		t.Fatal(err)
	}
	done := stallSync(t, w, "state")
	if err := waitOp(t, w, func() error { return w.Rewrite(nil) }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append failed across Rewrite: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("append hung across Rewrite")
	}
	if recs := readRecords(t, old); len(recs) != 1 || recs[0].ID != "state" {
		t.Fatalf("replaced file: %+v; the waiting append must be durable", recs)
	}
	// Appends still work after the rewrite reopened the file.
	if err := w.Commit("state"); err != nil {
		t.Fatalf("append after Rewrite: %v", err)
	}
	if recs := readRecords(t, path); len(recs) != 1 || recs[0].Op != WALCommit {
		t.Fatalf("after Rewrite and one append: %+v", recs)
	}
}
