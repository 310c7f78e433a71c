package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distmwis/internal/chaos"
	"distmwis/internal/graph"
	"distmwis/internal/reliable"
)

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	buf := make([]byte, 512)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, body.String()
}

// TestReadyzDegradesOnRestartBudget pins the load-balancer contract: a
// pool that keeps panicking past its restart budget turns /readyz red
// while /healthz stays green.
func TestReadyzDegradesOnRestartBudget(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, RestartBudget: 3})
	if code, _ := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("fresh server readyz = %d", code)
	}
	s.sched.restarts.Store(4) // one past the budget
	code, body := getStatus(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "restarts exceed budget") {
		t.Fatalf("readyz past budget = %d %q, want 503", code, body)
	}
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz must stay green while degraded, got %d", code)
	}
}

// TestReadyzDegradesOnSaturation fills the queue past the shed threshold
// and expects /readyz to route traffic away.
func TestReadyzDegradesOnSaturation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, ShedDepth: 2})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	if err := s.sched.submit(newTestJob("interactive", func() { close(started); <-block })); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 3; i++ {
		if err := s.sched.submit(newTestJob("batch", func() {})); err != nil {
			t.Fatal(err)
		}
	}
	code, body := getStatus(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "saturated") {
		t.Fatalf("readyz under saturation = %d %q, want 503", code, body)
	}
}

// TestDegradedDirectTier pins the breaker-fallback endpoint: a request
// with degraded=true is answered host-side, deterministically, marked
// degraded, without touching scheduler or cache.
func TestDegradedDirectTier(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	req := SolveRequest{
		Gen:      &GenSpec{Kind: "gnp", N: 120, P: 0.05, Weights: "poly2", Seed: 9},
		Alg:      "theorem2",
		Seed:     9,
		Degraded: true,
	}
	code, resp := postSolve(t, ts, req)
	if code != http.StatusOK || resp.Status != "done" || !resp.Degraded {
		t.Fatalf("degraded solve: code=%d resp=%+v", code, resp)
	}
	if resp.Weight <= 0 || len(resp.Set) == 0 {
		t.Fatalf("degraded tier returned an empty set: %+v", resp)
	}
	// Deterministic: a second identical request returns the identical set,
	// and neither went through the scheduler.
	_, again := postSolve(t, ts, req)
	if fmt.Sprint(resp.Set) != fmt.Sprint(again.Set) || resp.Weight != again.Weight {
		t.Fatalf("degraded tier not deterministic: %+v vs %+v", resp, again)
	}
	if st := s.Stats(); st.JobsDone != 0 {
		t.Fatalf("degraded requests must bypass the scheduler, did %d jobs", st.JobsDone)
	}
	// Async is ignored for degraded requests: still answered synchronously.
	req.Async = true
	code, resp = postSolve(t, ts, req)
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("async degraded solve must answer synchronously: code=%d resp=%+v", code, resp)
	}
}

// TestWorkerPanicFailsJobWithTyped500 schedules a chaos panic on the
// first job: that request fails with the typed worker-panic error while
// the next request succeeds on the restarted worker.
func TestWorkerPanicFailsJobWithTyped500(t *testing.T) {
	inj := chaos.NewInjector(chaos.Schedule{Seed: 5, Panics: []int64{1}})
	s, ts := newTestServer(t, Options{Workers: 1, Chaos: inj})
	req := SolveRequest{
		Gen:     &GenSpec{Kind: "cycle", N: 60},
		Alg:     "goodnodes",
		NoCache: true,
	}
	code, resp := postSolve(t, ts, req)
	if code != http.StatusInternalServerError || resp.Status != "failed" {
		t.Fatalf("panicked job: code=%d resp=%+v, want typed 500", code, resp)
	}
	if !strings.Contains(resp.Error, "worker panicked") {
		t.Fatalf("panicked job error = %q, want the typed worker-panic error", resp.Error)
	}
	code, resp = postSolve(t, ts, req)
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("request after panic: code=%d resp=%+v, want recovery", code, resp)
	}
	if st := s.Stats(); st.WorkerPanics != 1 || st.WorkerRestarts != 1 {
		t.Fatalf("stats = %+v, want 1 panic / 1 restart", st)
	}
}

// TestJournalCrashRecovery simulates SIGKILL mid-solve: the journal is
// copied the instant after an async job is accepted (the crashed disk
// image) and a second server recovering from that copy must re-solve the
// job to the bit-identical result.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.wal")

	// Server 1: single worker slowed 200ms per job, so the accepted job is
	// guaranteed un-committed when the "crash" snapshot is taken.
	slow := chaos.NewInjector(chaos.Schedule{Seed: 2, SlowP: 1, Slow: 200 * time.Millisecond})
	s1, ts1 := newTestServer(t, Options{Workers: 1, Chaos: slow})
	if _, _, err := s1.OpenJournal(live); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s1.Close() })

	req := SolveRequest{
		Gen:   &GenSpec{Kind: "gnp", N: 100, P: 0.06, Weights: "poly2", Seed: 13},
		Alg:   "theorem2",
		Seed:  13,
		Async: true,
	}
	code, accepted := postSolve(t, ts1, req)
	if code != http.StatusAccepted {
		t.Fatalf("async accept: code=%d resp=%+v", code, accepted)
	}
	// SIGKILL: freeze the disk image while the job is still in flight.
	img, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.wal")
	if err := os.WriteFile(crashed, img, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reference: what the lost process would have answered.
	want, err := New(Options{Workers: 1}).prepareAndSolveForTest(req)
	if err != nil {
		t.Fatal(err)
	}

	// Server 2 boots from the crashed image.
	s2, ts2 := newTestServer(t, Options{Workers: 2})
	recovered, _, err := s2.OpenJournal(crashed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", recovered)
	}

	final := waitJob(t, ts2, accepted.ID)
	if final.Status != "done" {
		t.Fatalf("recovered job = %+v, want done", final)
	}
	if fmt.Sprint(final.Set) != fmt.Sprint(want.Set) || final.Weight != want.Weight {
		t.Fatalf("replayed result differs from the lost solve:\n got %+v\nwant %+v", final, want)
	}

	// The recovered job committed: a third boot sees an empty backlog.
	f, err := os.Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := reliable.ReadWAL(f)
	if err != nil {
		t.Fatal(err)
	}
	if pending := reliable.PendingWAL(recs); len(pending) != 0 {
		t.Fatalf("journal still pending after recovery: %+v", pending)
	}
}

// One journal file holds both record kinds. A crash image taken while an
// async job is pending, after a PUT → PATCH chain, boots into both: the
// job replays bit-identically, the handle resolves at its patched hash and
// at its alias, and the rewritten file keeps the graph snapshot and the
// pending begin.
func TestJournalRecoversJobsAndGraphs(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.wal")
	slow := chaos.NewInjector(chaos.Schedule{Seed: 2, SlowP: 1, Slow: 200 * time.Millisecond})
	s1, ts1 := newTestServer(t, Options{Workers: 1, Chaos: slow})
	if _, _, err := s1.OpenJournal(live); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s1.Close() })

	put := putGraph(t, ts1, twoIslandGraph(t, 8, 20))
	code, patch := patchGraph(t, ts1, put.Hash, graph.Edit{AddEdges: [][2]int32{{0, 19}}})
	if code != http.StatusOK {
		t.Fatalf("patch: %d %+v", code, patch)
	}
	req := SolveRequest{
		Gen:   &GenSpec{Kind: "gnp", N: 80, P: 0.06, Weights: "poly2", Seed: 17},
		Alg:   "theorem2",
		Seed:  17,
		Async: true,
	}
	code, accepted := postSolve(t, ts1, req)
	if code != http.StatusAccepted {
		t.Fatalf("async accept: code=%d resp=%+v", code, accepted)
	}
	img, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.wal")
	if err := os.WriteFile(crashed, img, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := New(Options{Workers: 1}).prepareAndSolveForTest(req)
	if err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 2})
	jobs, mutations, err := s2.OpenJournal(crashed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	if jobs != 1 || mutations != 2 {
		t.Fatalf("recovered %d jobs and replayed %d mutations, want 1 and 2", jobs, mutations)
	}
	// The rewrite ran before the job was re-enqueued: a snapshot put record,
	// then the begin (a commit may follow it once the replay finishes).
	recs, err := reliable.ReadWAL(bytes.NewReader(readFile(t, crashed)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 || recs[0].Op != reliable.WALApply || recs[1].Op != reliable.WALBegin || recs[1].ID != accepted.ID {
		t.Fatalf("rewritten journal = %+v, want the snapshot then the pending begin", recs)
	}

	final := waitJob(t, ts2, accepted.ID)
	if final.Status != "done" || fmt.Sprint(final.Set) != fmt.Sprint(want.Set) || final.Weight != want.Weight {
		t.Fatalf("replayed job differs from the lost solve:\n got %+v\nwant %+v", final, want)
	}
	for _, h := range []string{patch.Hash, put.Hash} {
		httpResp, err := http.Get(ts2.URL + "/v1/graph/" + h)
		if err != nil {
			t.Fatal(err)
		}
		var info PutGraphResponse
		err = json.NewDecoder(httpResp.Body).Decode(&info)
		httpResp.Body.Close()
		if err != nil || httpResp.StatusCode != http.StatusOK || info.Hash != patch.Hash || info.Version != 1 {
			t.Fatalf("GET %s after reboot: %d %+v (err %v), want hash %s version 1",
				short(h), httpResp.StatusCode, info, err, short(patch.Hash))
		}
	}
}

// prepareAndSolveForTest runs a request synchronously through the full
// pipeline, bypassing HTTP — the reference result for replay comparisons.
func (s *Server) prepareAndSolveForTest(req SolveRequest) (SolveResponse, error) {
	if err := req.Normalize(); err != nil {
		return SolveResponse{}, err
	}
	req.Async = false
	p, err := s.prepare(&req)
	if err != nil {
		return SolveResponse{}, err
	}
	resp := s.execute(context.Background(), &req, p, "ref", time.Now(), false)
	if resp.Status != "done" {
		return resp, fmt.Errorf("reference solve failed: %+v", resp)
	}
	return resp, nil
}

// TestSingleFlightLeaderCancelMidSolve pins the follower-retry fix: when
// the single-flight leader dies of its own deadline mid-solve, a follower
// with a healthy context still gets a completed result instead of
// inheriting the leader's context error. Every graph source runs through
// the same pipeline, so the fix must hold for each of them.
func TestSingleFlightLeaderCancelMidSolve(t *testing.T) {
	spec := &GenSpec{Kind: "gnp", N: 80, P: 0.05, Weights: "poly2", Seed: 21}
	for _, source := range []string{"gen", "graph_ref"} {
		t.Run(source, func(t *testing.T) {
			slow := chaos.NewInjector(chaos.Schedule{Seed: 4, SlowP: 1, Slow: 300 * time.Millisecond})
			_, ts := newTestServer(t, Options{Workers: 1, Chaos: slow})
			req := SolveRequest{Alg: "goodnodes", Seed: 21}

			// Leader: a deadline far shorter than the 300ms slow solve.
			// graph_ref solves cannot be async, so that leader is a
			// synchronous request running in the background.
			leaderReq := req
			leaderReq.DeadlineMS = 100
			var leader func() SolveResponse
			switch source {
			case "gen":
				leaderReq.Gen = spec
				req.Gen = spec
				leaderReq.Async = true
				code, accepted := postSolve(t, ts, leaderReq)
				if code != http.StatusAccepted {
					t.Fatalf("leader accept: code=%d", code)
				}
				leader = func() SolveResponse { return waitJob(t, ts, accepted.ID) }
			case "graph_ref":
				g, err := (&SolveRequest{Gen: spec}).BuildGraph()
				if err != nil {
					t.Fatal(err)
				}
				leaderReq.GraphRef = putGraph(t, ts, g).Hash
				req.GraphRef = leaderReq.GraphRef
				done := make(chan SolveResponse, 1)
				go func() {
					body, _ := json.Marshal(leaderReq)
					var resp SolveResponse
					if httpResp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body)); err != nil {
						resp.Error = err.Error()
					} else {
						_ = json.NewDecoder(httpResp.Body).Decode(&resp)
						httpResp.Body.Close()
					}
					done <- resp
				}()
				leader = func() SolveResponse { return <-done }
			}
			time.Sleep(30 * time.Millisecond) // let the leader start its flight

			// Follower: same request, no deadline. Must come back done even
			// though the leader's context dies mid-solve.
			code, resp := postSolve(t, ts, req)
			if code != http.StatusOK || resp.Status != "done" {
				t.Fatalf("follower: code=%d resp=%+v, want done despite leader cancel", code, resp)
			}
			// And the leader reports its own deadline honestly.
			if rec := leader(); rec.Status != "deadline" {
				t.Fatalf("leader = %+v, want deadline", rec)
			}
		})
	}
}

// waitJob polls GET /v1/jobs/{id} until the job leaves queued/running.
func waitJob(t *testing.T, ts *httptest.Server, id string) SolveResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		httpResp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec SolveResponse
		err = json.NewDecoder(httpResp.Body).Decode(&rec)
		httpResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != "queued" && rec.Status != "running" {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, rec)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
