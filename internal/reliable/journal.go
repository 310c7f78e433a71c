package reliable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// This file exports the write-ahead journal the serving tier uses for
// accepted batch jobs and graph mutations, one file for both. It is the
// durable-storage sibling of the Checkpointer snapshot+replay idiom above:
// the journal file plays the role of the transport's input log (every
// accepted unit of work is logged before it is acknowledged), and
// compaction-on-open plays the role of the snapshot (completed work is
// dropped, only pending work survives into the rewritten file). Recovery is then deterministic replay: re-executing a
// pending record reproduces the lost result exactly, because solves are
// pure functions of their logged request.

// WALOp is the record type tag of a WALRecord.
type WALOp string

const (
	// WALBegin marks a unit of work as accepted but not yet completed.
	WALBegin WALOp = "begin"
	// WALCommit marks a previously begun unit of work as completed.
	WALCommit WALOp = "commit"
	// WALApply is a durable state-change record: unlike begin/commit pairs,
	// which describe pending work and retire each other, an apply record
	// describes work already done to some replicated state (a graph
	// mutation, a configuration change). Compaction keeps every apply
	// record — dropping one would fork replayed state from the state that
	// was acknowledged — until the owner snapshots via Rewrite.
	WALApply WALOp = "apply"
)

// WALRecord is one journal line. Begin records carry the replayable
// payload; commit records carry only the ID they retire.
type WALRecord struct {
	Op   WALOp           `json:"op"`
	ID   string          `json:"id"`
	Data json.RawMessage `json:"data,omitempty"`
}

// WAL is an append-only, fsync-before-return write-ahead journal of
// begin/commit/apply records. Concurrency-safe; every append is durable
// before the method returns, so a record present in memory is present on
// disk — the invariant crash recovery builds on.
//
// Durability is self-clocking group commit. An append writes its line and
// then waits for an fsync that started after the line was written; if no
// fsync is in flight it issues one itself, covering everything written so
// far. A lone append therefore syncs at once, and appends that arrive while
// a sync is in flight share the next one: the batch size follows the load
// and the fsync latency, with no window or batch knob to tune.
type WAL struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled when a sync completes; uses mu
	path string
	f    *os.File

	written int64 // lines written to f
	synced  int64 // lines covered by a completed fsync
	syncing bool  // an fsync is in flight (mu released for its duration)
	// err is a failed fsync. It leaves the durability of every line written
	// since the last good sync unknown, so it fails their appends and every
	// later one; the journal has to be reopened.
	err   error
	syncs atomic.Int64
}

// Syncs reports how many fsyncs of the open file the WAL has issued — the
// observable group-commit amortisation (the whole-file syncs of compaction
// and Rewrite are not counted).
func (w *WAL) Syncs() int64 { return w.syncs.Load() }

// OpenWAL opens (creating if needed) the journal at path, returning the
// retained records: begins recorded without a matching commit plus every
// apply record, in original append order (filter with PendingWAL /
// ApplyWAL). Before returning it compacts the file down to exactly those
// retained records, so the journal never grows beyond the live backlog,
// the state log, and the records appended since the last open.
//
// A truncated final line (the signature of a crash mid-append) is
// discarded silently: an incomplete begin was never acknowledged to
// anyone, and an incomplete commit re-runs a completed-but-unacknowledged
// unit of work, which replay determinism makes harmless.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	prior, err := readWALFile(path)
	if err != nil {
		return nil, nil, err
	}
	retained := retainWAL(prior)
	if err := writeWALFile(path, retained); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("reliable: wal open: %w", err)
	}
	w := &WAL{path: path, f: f}
	w.cond = sync.NewCond(&w.mu)
	return w, retained, nil
}

// retainWAL reduces a record sequence to what compaction must keep:
// uncommitted begins and every apply record, original order preserved.
func retainWAL(recs []WALRecord) []WALRecord {
	committed := make(map[string]bool)
	for _, rec := range recs {
		if rec.Op == WALCommit {
			committed[rec.ID] = true
		}
	}
	var keep []WALRecord
	for _, rec := range recs {
		switch rec.Op {
		case WALBegin:
			if !committed[rec.ID] {
				keep = append(keep, rec)
			}
		case WALApply:
			keep = append(keep, rec)
		}
	}
	return keep
}

// writeWALFile atomically replaces the journal at path with recs: write to
// a temp file, fsync, rename.
func writeWALFile(path string, recs []WALRecord) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact-*")
	if err != nil {
		return fmt.Errorf("reliable: wal compact: %w", err)
	}
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("reliable: wal compact: %w", err)
		}
	}
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("reliable: wal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("reliable: wal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("reliable: wal compact: %w", err)
	}
	return nil
}

// Path returns the journal's file path.
func (w *WAL) Path() string { return w.path }

// Begin durably records the acceptance of unit id with its replayable
// payload. It must return before the acceptance is acknowledged upstream.
func (w *WAL) Begin(id string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("reliable: wal begin %s: %w", id, err)
	}
	return w.append(WALRecord{Op: WALBegin, ID: id, Data: raw})
}

// Apply durably records a completed state change with its replayable
// payload. It must return before the change is acknowledged upstream:
// a mutation whose apply record reached disk survives any crash, and
// replaying the apply log in order reconstructs the state bit-identically.
func (w *WAL) Apply(id string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("reliable: wal apply %s: %w", id, err)
	}
	return w.append(WALRecord{Op: WALApply, ID: id, Data: raw})
}

// Rewrite atomically replaces the journal's contents with recs — the
// snapshot-compaction primitive for apply logs: the owner replays the log,
// then rewrites it as one snapshot record per live piece of state, so the
// journal stays bounded by live state rather than by mutation history.
// Concurrent appends are excluded for the duration; the WAL stays open for
// append afterwards.
func (w *WAL) Rewrite(recs []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("reliable: wal rewrite after Close")
	}
	// Appends waiting on a sync must be released, their records on disk,
	// before the file is swapped out from under them.
	w.flushLocked()
	if err := w.f.Close(); err != nil {
		w.f = nil
		return fmt.Errorf("reliable: wal rewrite: %w", err)
	}
	w.f = nil
	if err := writeWALFile(w.path, recs); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("reliable: wal rewrite reopen: %w", err)
	}
	w.f = f
	return nil
}

// Commit durably records the completion of unit id. Committing an id with
// no pending begin is legal (the begin may have been compacted away by a
// concurrent reopen in tests); recovery simply never sees it.
func (w *WAL) Commit(id string) error {
	return w.append(WALRecord{Op: WALCommit, ID: id})
}

func (w *WAL) append(rec WALRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("reliable: wal append: %w", err)
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("reliable: wal append after Close")
	}
	if w.err != nil {
		return fmt.Errorf("reliable: wal sync: %w", w.err)
	}
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("reliable: wal append: %w", err)
	}
	w.written++
	seq := w.written
	// A sync in flight may have started before this line was written, so
	// only a completed sync whose coverage reaches seq releases it.
	for w.synced < seq {
		switch {
		case w.err != nil:
			return fmt.Errorf("reliable: wal sync: %w", w.err)
		case w.syncing:
			w.cond.Wait()
		default:
			w.syncLocked()
		}
	}
	return nil
}

// syncLocked fsyncs every line written so far. Caller holds w.mu, which is
// released for the duration of the fsync so that appends arriving meanwhile
// write their lines and queue for the next sync.
func (w *WAL) syncLocked() {
	w.syncing = true
	target, f := w.written, w.f
	w.mu.Unlock()
	err := f.Sync()
	w.mu.Lock()
	w.syncing = false
	w.syncs.Add(1)
	if err != nil {
		w.err = err
	} else {
		w.synced = target
	}
	w.cond.Broadcast()
}

// flushLocked returns, holding w.mu, once no sync is in flight and every
// line written is covered by a completed one (or a sync has failed), so no
// append is left waiting on the file. Caller holds w.mu and w.f is open.
func (w *WAL) flushLocked() {
	for w.err == nil && (w.syncing || w.synced < w.written) {
		if w.syncing {
			w.cond.Wait()
		} else {
			w.syncLocked()
		}
	}
}

// Close releases the journal file, first syncing every line an append is
// still waiting on so no waiter hangs. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	w.flushLocked()
	err := w.f.Close()
	w.f = nil
	return err
}

// ReadWAL parses a journal stream, tolerating a truncated final line.
// Exposed so tools and tests can inspect a journal without opening it for
// writing.
func ReadWAL(r io.Reader) ([]WALRecord, error) {
	var recs []WALRecord
	// No line-length cap: every line was written by an append that was
	// acknowledged, however large its payload.
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("reliable: wal read: %w", err)
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			var rec WALRecord
			if json.Unmarshal(line, &rec) != nil {
				// A malformed line can only be the torn tail of a crashed
				// append; everything after it is unreachable by construction
				// (appends are sequential), so stop here.
				return recs, nil
			}
			recs = append(recs, rec)
		}
		if err == io.EOF {
			return recs, nil
		}
	}
}

// PendingWAL reduces a record sequence to the begins that were never
// committed, preserving append order.
func PendingWAL(recs []WALRecord) []WALRecord {
	committed := make(map[string]bool)
	for _, rec := range recs {
		if rec.Op == WALCommit {
			committed[rec.ID] = true
		}
	}
	var pending []WALRecord
	for _, rec := range recs {
		if rec.Op == WALBegin && !committed[rec.ID] {
			pending = append(pending, rec)
		}
	}
	return pending
}

// ApplyWAL reduces a record sequence to its apply records, preserving
// append order — the state log to replay on boot.
func ApplyWAL(recs []WALRecord) []WALRecord {
	var out []WALRecord
	for _, rec := range recs {
		if rec.Op == WALApply {
			out = append(out, rec)
		}
	}
	return out
}

func readWALFile(path string) ([]WALRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reliable: wal open: %w", err)
	}
	defer f.Close()
	return ReadWAL(f)
}
