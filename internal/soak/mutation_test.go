package soak

import (
	"bytes"
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
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/mis"
	"distmwis/internal/server"
)

// TestMutationSoak is the dynamic-graph subsystem's audit: a pinned chaos
// schedule races mutation storms (PATCHes) against graph_ref solves while
// the injector also fires 500s, connection resets and worker panics. The
// contract under test, in four acts:
//
//	A. no acked mutation is ever lost: every acknowledged PATCH advances the
//	   server to the bit-identical state a shadow application produces, and
//	   a server rebooted from a frozen journal image reconstructs exactly
//	   the last acked state;
//	B. no stale answer is ever served: every solve response is an
//	   independent set on the exact graph version its graph_hash names;
//	C. every degraded answer heals: each PATCH-healed answer key climbs to
//	   quality "full", and the final published answer is independent on its
//	   version;
//	D. the whole exercise leaks no goroutines.
func TestMutationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	t.Run("StormsUnderChaos", soakMutationStorm)

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

func soakMutationStorm(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "graphs.wal")

	inj := chaos.NewInjector(chaos.Schedule{
		Seed:       soakSeed,
		ErrorP:     0.08,
		ResetP:     0.04,
		PanicEvery: 15,
		StormEvery: 1,
		StormOps:   6,
	})
	s1 := server.New(server.Options{Workers: 4, Chaos: inj, RepairInterval: time.Millisecond})
	if _, _, err := s1.OpenJournal(journal); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer func() {
		ts1.Close()
		_ = s1.Drain()
		_ = s1.Close()
	}()

	// retries counts the faults the traffic absorbed; the chaos assertions
	// at the end need it to prove the soak was not vacuous.
	var retries atomic.Int64

	// The seed graph. Shadow state lives on the test side: versions maps
	// every content hash the server has ever acknowledged to the exact graph
	// it named, built by applying each acked edit locally.
	const n = 60
	g0 := gen.Weighted(gen.GNP(n, 0.06, soakSeed), gen.PolyWeights(2), soakSeed)
	var g0doc bytes.Buffer
	if err := g0.WriteJSON(&g0doc); err != nil {
		t.Fatal(err)
	}
	var put server.PutGraphResponse
	if code := doJSONRetry(t, "PUT", ts1.URL+"/v1/graph", g0doc.Bytes(), &put, &retries); code != http.StatusOK {
		t.Fatalf("PUT graph: code %d, resp %+v", code, put)
	}
	if put.Hash != g0.HashString() {
		t.Fatalf("server hash %s != local hash %s for identical bytes", put.Hash, g0.HashString())
	}
	var verMu sync.Mutex
	versions := map[string]*graph.Graph{put.Hash: g0}

	// One full foreground solve seeds the handle's last-answer record, so
	// every storm PATCH has an answer to heal onto the new version.
	baseReq := func(seed uint64) []byte {
		body, _ := json.Marshal(server.SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: seed})
		return body
	}
	var first server.SolveResponse
	if code := doJSONRetry(t, "POST", ts1.URL+"/v1/solve", baseReq(soakSeed), &first, &retries); code != http.StatusOK {
		t.Fatalf("seed solve: code %d, resp %+v", code, first)
	}
	if first.Quality != "full" {
		t.Fatalf("seed solve quality %q, want full", first.Quality)
	}

	// Act A+B traffic: one mutator applying the injector's storm batches as
	// PATCHes, racing reader goroutines solving through the same handle.
	type observed struct {
		hash string
		set  []int32
	}
	var (
		obsMu    sync.Mutex
		observe  []observed
		ackMu    sync.Mutex
		ackEdits int
		keys     []string
		wg       sync.WaitGroup
	)

	const storms = 25
	wg.Add(1)
	go func() {
		defer wg.Done()
		shadow := g0
		for seq := int64(1); seq <= storms; seq++ {
			ops := inj.Storm(seq, n)
			if ops == nil {
				continue
			}
			edit := stormEdit(ops)
			body, _ := json.Marshal(edit)
			var resp server.PatchGraphResponse
			code := doJSONRetry(t, "PATCH", ts1.URL+"/v1/graph/"+shadow.HashString(), body, &resp, &retries)
			if code != http.StatusOK {
				t.Errorf("storm %d: PATCH code %d, resp %+v", seq, code, resp)
				return
			}
			// The ack is the durability line: re-derive the mutation locally
			// and the server must have landed on the bit-identical state.
			next, _, err := shadow.ApplyEdit(edit)
			if err != nil {
				t.Errorf("storm %d: shadow apply: %v", seq, err)
				return
			}
			if resp.Hash != next.HashString() {
				t.Errorf("storm %d: server hash %s != shadow hash %s", seq, resp.Hash, next.HashString())
				return
			}
			shadow = next
			verMu.Lock()
			versions[resp.Hash] = shadow
			verMu.Unlock()
			ackMu.Lock()
			ackEdits++
			if resp.Healed {
				keys = append(keys, resp.AnswerKey)
			} else {
				t.Errorf("storm %d: PATCH did not heal despite a recorded full answer", seq)
			}
			ackMu.Unlock()
		}
	}()

	const readers, perReader = 4, 25
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				// A small seed pool: repeats exercise the tagged cache across
				// invalidations, distinct seeds keep the scheduler busy enough
				// for the panic-every-15 schedule to fire.
				var resp server.SolveResponse
				code := doJSONRetry(t, "POST", ts1.URL+"/v1/solve", baseReq(uint64(1+(w*perReader+i)%8)), &resp, &retries)
				if code != http.StatusOK || resp.Status != "done" {
					t.Errorf("reader %d.%d: code %d, resp %+v", w, i, code, resp)
					continue
				}
				obsMu.Lock()
				observe = append(observe, observed{hash: resp.GraphHash, set: resp.Set})
				obsMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Act B: every response named a graph version; its set must be
	// independent on exactly that version. Verified after the race so the
	// shadow map is complete — a hash the map has never seen would itself be
	// the stale-answer bug this test exists to catch.
	for k, o := range observe {
		g := versions[o.hash]
		if g == nil {
			t.Fatalf("response %d names unknown graph version %s", k, o.hash)
		}
		if !g.IsIndependentSet(indicesToBools(o.set, g.N())) {
			t.Fatalf("response %d: set is not independent on its version %s", k, o.hash)
		}
	}

	// Act C: each healed answer climbs to full quality and stays independent
	// on the version it answers for.
	seen := map[string]bool{}
	deadline := time.Now().Add(30 * time.Second)
	for _, key := range keys {
		if seen[key] {
			continue
		}
		seen[key] = true
		a := pollAnswer(t, ts1.URL, key, "full", deadline, &retries)
		g := versions[a.GraphHash]
		if g == nil {
			t.Fatalf("answer %s names unknown graph version %s", key, a.GraphHash)
		}
		if !g.IsIndependentSet(indicesToBools(a.Set, g.N())) {
			t.Fatalf("answer %s: upgraded set not independent on its version", key)
		}
	}

	// The chaos must actually have fired, or every assertion above was easy.
	st := inj.Stats()
	t.Logf("chaos %+v, retries %d, acked %d storms, %d reader responses, %d healed keys",
		st, retries.Load(), ackEdits, len(observe), len(seen))
	if st.Errors == 0 || st.Resets == 0 || st.Panics == 0 || st.Storms == 0 {
		t.Fatalf("chaos schedule barely fired: %+v", st)
	}
	if retries.Load() == 0 {
		t.Fatal("traffic absorbed no faults — the soak tested nothing")
	}

	// Act A, crash edition: freeze the journal as it is on disk and boot a
	// second server from the frozen image — what a rebooted process would
	// see. It must reconstruct the last acked state bit-identically and
	// resolve the original hash through the whole alias chain.
	img, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.wal")
	if err := os.WriteFile(crashed, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := server.New(server.Options{Workers: 2})
	_, replayed, err := s2.OpenJournal(crashed)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		_ = s2.Drain()
		_ = s2.Close()
	}()
	if replayed != 1+ackEdits {
		t.Fatalf("replayed %d journal records, want 1 put + %d acked patches", replayed, ackEdits)
	}

	// Recover the final state from the rebooted server's own view instead of
	// trusting test-side bookkeeping, then check the two agree.
	var got server.PutGraphResponse
	none := atomic.Int64{}
	if code := doJSONRetry(t, "GET", ts2.URL+"/v1/graph/"+put.Hash, nil, &got, &none); code != http.StatusOK {
		t.Fatalf("rebooted server lost the handle: code %d, resp %+v", code, got)
	}
	final := versions[got.Hash]
	if final == nil {
		t.Fatalf("rebooted server reports hash %s the shadow never acked", got.Hash)
	}
	if got.Version != ackEdits || got.N != final.N() || got.M != final.M() {
		t.Fatalf("rebooted handle %+v does not match shadow (version %d, n %d, m %d)",
			got, ackEdits, final.N(), final.M())
	}

	// A solve on the rebooted server is bit-identical to a direct library
	// solve of the shadow's final state: replay restored not just topology
	// but answer-determinism.
	var resp server.SolveResponse
	if code := doJSONRetry(t, "POST", ts2.URL+"/v1/solve", baseReq(soakSeed), &resp, &none); code != http.StatusOK {
		t.Fatalf("rebooted solve: code %d, resp %+v", code, resp)
	}
	want, _, err := maxis.SolveByComponent("goodnodes", final, 0.5, 0,
		maxis.Config{Seed: soakSeed, MIS: mis.Luby{}, Workers: 1}, maxis.ComponentCache{})
	if err != nil {
		t.Fatal(err)
	}
	gotSet := indicesToBools(resp.Set, final.N())
	for v := range want.Set {
		if gotSet[v] != want.Set[v] {
			t.Fatalf("rebooted solve differs from the library at node %d", v)
		}
	}
	if resp.Weight != want.Weight {
		t.Fatalf("rebooted solve weight %d != %d", resp.Weight, want.Weight)
	}
}

// stormEdit maps an injector storm batch onto the PATCH wire format.
func stormEdit(ops []chaos.MutationOp) graph.Edit {
	var e graph.Edit
	for _, op := range ops {
		switch op.Kind {
		case "add":
			e.AddEdges = append(e.AddEdges, [2]int32{op.U, op.V})
		case "remove":
			e.RemoveEdges = append(e.RemoveEdges, [2]int32{op.U, op.V})
		case "weight":
			e.Weights = append(e.Weights, graph.WeightUpdate{V: op.U, W: op.W})
		}
	}
	return e
}

func indicesToBools(set []int32, n int) []bool {
	out := make([]bool, n)
	for _, v := range set {
		out[v] = true
	}
	return out
}

// doJSONRetry performs one logical request against a chaos-wrapped server,
// absorbing injected resets (transport errors) and 5xx responses the way a
// production client would. 4xx is returned immediately: caller bugs must
// not be retried into accidental passes.
func doJSONRetry(t *testing.T, method, url string, body []byte, out any, retries *atomic.Int64) int {
	t.Helper()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		httpResp, err := http.DefaultClient.Do(req)
		if err == nil {
			if httpResp.StatusCode < 500 {
				err = json.NewDecoder(httpResp.Body).Decode(out)
				httpResp.Body.Close()
				if err != nil {
					t.Fatalf("%s %s: decode: %v", method, url, err)
				}
				return httpResp.StatusCode
			}
			httpResp.Body.Close()
		}
		if attempt >= 50 {
			t.Errorf("%s %s: no non-5xx response after %d attempts (last err %v)", method, url, attempt+1, err)
			return http.StatusInternalServerError
		}
		retries.Add(1)
		time.Sleep(2 * time.Millisecond)
	}
}

// pollAnswer polls GET /v1/answers/{key} until the answer reaches the
// wanted quality tag.
func pollAnswer(t *testing.T, base, key, want string, deadline time.Time, retries *atomic.Int64) storedAnswerView {
	t.Helper()
	for {
		var a storedAnswerView
		code := doJSONRetry(t, "GET", base+"/v1/answers/"+key, nil, &a, retries)
		if code == http.StatusOK && a.Quality == want {
			return a
		}
		if time.Now().After(deadline) {
			t.Fatalf("answer %s stuck at quality %q (code %d), want %q", key, a.Quality, code, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// storedAnswerView mirrors the wire shape of GET /v1/answers/{key}.
type storedAnswerView struct {
	Key       string  `json:"key"`
	GraphHash string  `json:"graph_hash"`
	Set       []int32 `json:"set"`
	Weight    int64   `json:"weight"`
	Quality   string  `json:"quality"`
	Error     string  `json:"error,omitempty"`
}
