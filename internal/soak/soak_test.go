package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distmwis/internal/chaos"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/mis"
	"distmwis/internal/reliable"
	"distmwis/internal/server"
	"distmwis/internal/server/client"
)

// soakSeed pins every random decision in the suite — chaos schedule,
// client jitter, request mix — so a failure replays exactly.
const soakSeed = 20260808

// TestChaosSoak is the serving tier's availability audit, in three acts:
//
//	A. a retrying client must hold a ≥99% success ratio against a server
//	   running a pinned chaos schedule (injected 5xx, resets, latency,
//	   scheduled worker panics);
//	B. a forced crash (journal frozen mid-solve, process abandoned) must
//	   lose none of the accepted async jobs, and every replayed job must
//	   return the bit-identical set the lost process would have;
//	C. the whole exercise must not leak goroutines.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	t.Run("AvailabilityUnderChaos", soakAvailability)
	t.Run("CrashRecoveryLosesNothing", soakCrashRecovery)

	// Act C: everything spawned above — servers, workers, retries, hedges —
	// must be gone. Poll briefly: worker goroutines exit asynchronously
	// after drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func soakAvailability(t *testing.T) {
	inj := chaos.NewInjector(chaos.Schedule{
		Seed:       soakSeed,
		LatencyP:   0.2,
		Latency:    5 * time.Millisecond,
		ErrorP:     0.05,
		ResetP:     0.03,
		SlowP:      0.3,
		Slow:       2 * time.Millisecond,
		PanicEvery: 25,
	})
	s := server.New(server.Options{Workers: 4, Chaos: inj})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	cl := client.New(ts.URL, client.Options{
		Timeout:          5 * time.Second,
		MaxRetries:       3,
		BackoffBase:      5 * time.Millisecond,
		BackoffCap:       100 * time.Millisecond,
		Seed:             soakSeed,
		BreakerThreshold: 10,
		BreakerCooldown:  200 * time.Millisecond,
	})

	const (
		workers     = 8
		perWorker   = 50
		wantSuccess = 0.99
	)
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A deterministic mix over a 64-seed pool: repeats exercise
				// the cache while enough unique solves flow through the
				// scheduler for the panic-every-25-jobs schedule to fire.
				seed := uint64(1 + (w*perWorker+i)%64)
				req := server.SolveRequest{
					Gen:  &server.GenSpec{Kind: "gnp", N: 80, P: 0.05, Weights: "poly2", Seed: seed},
					Alg:  "goodnodes",
					Seed: seed,
				}
				if (w+i)%2 == 0 {
					req.Gen = &server.GenSpec{Kind: "cycle", N: 50, Weights: "poly2", Seed: seed}
				}
				resp, err := cl.Solve(context.Background(), req)
				if err == nil && resp.Status == "done" {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	total := ok.Load() + failed.Load()
	ratio := float64(ok.Load()) / float64(total)
	t.Logf("availability: %d/%d ok (%.4f), client %+v, chaos %+v, server %+v",
		ok.Load(), total, ratio, cl.Stats(), inj.Stats(), s.Stats())
	if ratio < wantSuccess {
		t.Fatalf("success ratio %.4f below SLO %.2f (%d failures)", ratio, wantSuccess, failed.Load())
	}
	// The schedule must actually have fired — otherwise the SLO assertion
	// is vacuous.
	st := inj.Stats()
	if st.Errors == 0 || st.Resets == 0 || st.Panics == 0 {
		t.Fatalf("chaos schedule barely fired: %+v", st)
	}
	if cl.Stats().Retries == 0 {
		t.Fatal("client absorbed no faults — the soak tested nothing")
	}
	if s.Stats().WorkerRestarts == 0 {
		t.Fatal("no worker restarts despite scheduled panics")
	}
}

func soakCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.wal")

	// Server 1: one worker, every job slowed 150ms — so the async backlog
	// is provably un-committed when the crash image is frozen.
	slow := chaos.NewInjector(chaos.Schedule{Seed: soakSeed, SlowP: 1, Slow: 150 * time.Millisecond})
	s1 := server.New(server.Options{Workers: 1, Chaos: slow})
	if _, _, err := s1.OpenJournal(live); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer func() {
		ts1.Close()
		_ = s1.Drain()
		_ = s1.Close()
	}()

	const jobs = 5
	type acceptedJob struct {
		id  string
		req server.SolveRequest
	}
	var accepted []acceptedJob
	for i := 0; i < jobs; i++ {
		req := server.SolveRequest{
			Gen:      &server.GenSpec{Kind: "gnp", N: 100, P: 0.06, Weights: "poly2", Seed: uint64(30 + i)},
			Alg:      "theorem2",
			Seed:     uint64(30 + i),
			Priority: "batch",
			Async:    true,
		}
		body, _ := json.Marshal(req)
		httpResp, err := http.Post(ts1.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var resp server.SolveResponse
		err = json.NewDecoder(httpResp.Body).Decode(&resp)
		httpResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if httpResp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: code=%d resp=%+v", i, httpResp.StatusCode, resp)
		}
		accepted = append(accepted, acceptedJob{id: resp.ID, req: req})
	}

	// SIGKILL: freeze the journal as it is on disk right now. The live
	// server keeps running (and will commit its copy), but recovery reads
	// only the frozen image — exactly what a rebooted process would see.
	img, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.wal")
	if err := os.WriteFile(crashed, img, 0o644); err != nil {
		t.Fatal(err)
	}
	frozen, err := reliable.ReadWAL(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	pending := reliable.PendingWAL(frozen)
	if len(pending) == 0 {
		t.Fatal("crash image has no pending jobs — the 150ms slow hook failed to hold the backlog")
	}
	t.Logf("crash image: %d of %d accepted jobs pending", len(pending), jobs)

	// Server 2 boots from the crash image and must replay the backlog.
	s2 := server.New(server.Options{Workers: 2})
	recovered, _, err := s2.OpenJournal(crashed)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		_ = s2.Drain()
		_ = s2.Close()
	}()
	if recovered != len(pending) {
		t.Fatalf("recovered %d jobs, want %d", recovered, len(pending))
	}

	pendingIDs := make(map[string]bool, len(pending))
	for _, rec := range pending {
		pendingIDs[rec.ID] = true
	}
	for _, job := range accepted {
		if !pendingIDs[job.id] {
			// Committed before the crash: its result lived and died with
			// server 1; nothing to verify against server 2.
			continue
		}
		final := pollJob(t, ts2.URL, job.id)
		if final.Status != "done" {
			t.Fatalf("recovered job %s = %+v, want done", job.id, final)
		}
		// Bit-identical replay: the recovered result must match a direct
		// library solve of the journaled request.
		g := gen.Weighted(gen.GNP(job.req.Gen.N, job.req.Gen.P, job.req.Gen.Seed),
			gen.PolyWeights(2), job.req.Gen.Seed)
		want, err := maxis.Solve("theorem2", g, 0.5, 0, maxis.Config{Seed: job.req.Seed, MIS: mis.Luby{}, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]bool, g.N())
		for _, v := range final.Set {
			got[v] = true
		}
		for v := range want.Set {
			if got[v] != want.Set[v] {
				t.Fatalf("job %s: replayed set differs from the lost solve at node %d", job.id, v)
			}
		}
		if final.Weight != want.Weight {
			t.Fatalf("job %s: replayed weight %d != %d", job.id, final.Weight, want.Weight)
		}
	}

	// Every replayed job committed: a third boot would find no backlog.
	f, err := os.Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := reliable.ReadWAL(f)
	if err != nil {
		t.Fatal(err)
	}
	if left := reliable.PendingWAL(recs); len(left) != 0 {
		t.Fatalf("journal still has %d pending jobs after recovery: %+v", len(left), left)
	}
}

func pollJob(t *testing.T, base, id string) server.SolveResponse {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		httpResp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var resp server.SolveResponse
		err = json.NewDecoder(httpResp.Body).Decode(&resp)
		httpResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != "queued" && resp.Status != "running" {
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, resp)
			return resp
		}
		time.Sleep(10 * time.Millisecond)
	}
}
