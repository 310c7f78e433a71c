package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"distmwis/internal/reliable"
)

// This file wires the reliable.WAL write-ahead journal into the serving
// tier. One file holds both record kinds: apply records of graph PUTs and
// PATCHes (graphstore.go) and begin/commit records of async jobs. Every
// record is fsynced before what it records is acknowledged; concurrent
// appends share fsyncs through the WAL's self-clocking group commit. The
// job contract, verified by the chaos soak test:
//
//  1. Every async job is journaled (begin record with the full normalized
//     request) BEFORE the 202 acknowledgement is written.
//  2. A job reaching any terminal state appends a commit record.
//  3. On boot, every begin without a commit — the jobs a crash interrupted
//     — is re-enqueued and re-solved. Solves are pure functions of the
//     request, so the replayed result is bit-identical to what the lost
//     process would have produced.
//
// Execution is therefore at-least-once, which determinism upgrades to
// exactly-once-equivalent: a job that completed but crashed before its
// commit reached disk is simply solved again to the same answer.

// OpenJournal attaches the write-ahead journal at path. It must be called
// before the server starts accepting traffic, and at most once. In order,
// it replays the apply records into graph handles (hash-verified), rewrites
// the file as one put record per live handle followed by every uncommitted
// begin, and re-enqueues the pending jobs. Returns the number of jobs
// recovered and of graph records replayed.
func (s *Server) OpenJournal(path string) (jobs, mutations int, err error) {
	if s.wal != nil {
		return 0, 0, fmt.Errorf("server: journal already open at %s", s.wal.Path())
	}
	wal, retained, err := reliable.OpenWAL(path)
	if err != nil {
		return 0, 0, err
	}
	mutations, snap, err := s.graphs.replay(reliable.ApplyWAL(retained))
	pending := reliable.PendingWAL(retained)
	if err == nil {
		err = wal.Rewrite(append(snap, pending...))
	}
	if err != nil {
		wal.Close()
		return 0, 0, err
	}
	s.wal = wal

	// Job IDs keep their original names across the restart so clients can
	// still poll them; bump the sequence past every recovered ID so new
	// jobs never collide.
	maxSeq := int64(0)
	for _, rec := range pending {
		if n, ok := parseJobID(rec.ID); ok && n > maxSeq {
			maxSeq = n
		}
	}
	for {
		cur := s.jobSeq.Load()
		if cur >= maxSeq || s.jobSeq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}

	for _, rec := range pending {
		var req SolveRequest
		if err := json.Unmarshal(rec.Data, &req); err != nil {
			// A journaled request that no longer parses cannot be replayed;
			// retire it rather than crash-looping the daemon on it forever.
			_ = s.wal.Commit(rec.ID)
			continue
		}
		if err := s.recoverJob(rec.ID, req); err != nil {
			_ = s.wal.Commit(rec.ID)
			continue
		}
		s.recovered.Add(1)
	}
	return int(s.recovered.Load()), mutations, nil
}

// recoverJob re-enqueues one journaled job under its original ID. The
// original deadline (wall-clock of a dead process) is meaningless, so the
// replay runs without one; shedding is disabled so the replay is a full
// solve, exactly as accepted.
func (s *Server) recoverJob(id string, req SolveRequest) error {
	if err := req.Normalize(); err != nil {
		return err
	}
	p, err := s.prepare(&req)
	if err != nil {
		return err
	}
	rec := s.jobs.create(id)
	start := time.Now()
	s.async.Add(1)
	go func() {
		defer s.async.Done()
		resp := s.executeRecovered(&req, p, id, start)
		rec.store(resp)
		s.journalCommit(id)
	}()
	return nil
}

// executeRecovered runs a replayed job, absorbing transient queue-full
// rejections: recovery can momentarily flood the scheduler with more
// pending jobs than the queue holds, and dropping an accepted job there
// would violate the no-loss contract. Bounded retries keep a genuinely
// wedged scheduler from hanging recovery forever; a job still rejected
// after the budget stays uncommitted and is retried on the next boot.
func (s *Server) executeRecovered(req *SolveRequest, p prepared, id string, start time.Time) SolveResponse {
	const (
		attempts = 200
		pause    = 25 * time.Millisecond
	)
	var resp SolveResponse
	for i := 0; i < attempts; i++ {
		resp = s.execute(context.Background(), req, p, id, start, false)
		if resp.Error != errQueueFull.Error() {
			return resp
		}
		time.Sleep(pause)
	}
	return resp
}

// journalBegin durably records an accepted async job. A nil journal (the
// default: no -journal flag) makes it a no-op.
func (s *Server) journalBegin(id string, req *SolveRequest) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Begin(id, req)
}

// journalCommit retires a terminal job. Errors are swallowed: a failed
// commit means the job replays on next boot, which determinism makes
// harmless — strictly better than failing a job that actually finished.
func (s *Server) journalCommit(id string) {
	if s.wal == nil {
		return
	}
	_ = s.wal.Commit(id)
}

// parseJobID extracts N from "job-N".
func parseJobID(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
