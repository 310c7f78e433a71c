package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/reliable"
)

func graphJSON(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func putGraph(t testing.TB, ts *httptest.Server, g *graph.Graph) PutGraphResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graph", bytes.NewReader(graphJSON(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp PutGraphResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/graph: %d %s", httpResp.StatusCode, resp.Error)
	}
	return resp
}

func patchGraph(t testing.TB, ts *httptest.Server, hash string, edit graph.Edit) (int, PatchGraphResponse) {
	t.Helper()
	body, err := json.Marshal(edit)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/graph/"+hash, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp PatchGraphResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return httpResp.StatusCode, resp
}

func getAnswer(t *testing.T, ts *httptest.Server, key string) (int, storedAnswer) {
	t.Helper()
	httpResp, err := http.Get(ts.URL + "/v1/answers/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var a storedAnswer
	if err := json.NewDecoder(httpResp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	return httpResp.StatusCode, a
}

// waitQuality polls the answers registry until key reaches quality, the
// self-healing observation loop of the soak test in miniature.
func waitQuality(t *testing.T, ts *httptest.Server, key, quality string) storedAnswer {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, a := getAnswer(t, ts, key)
		if code == http.StatusOK && qualityRank(a.Quality) >= qualityRank(quality) {
			return a
		}
		if time.Now().After(deadline) {
			t.Fatalf("answer %s never reached quality %s (last: %d %+v)", key, quality, code, a)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// twoIslandGraph returns two disjoint weighted paths: 0..k-1 and k..n-1.
func twoIslandGraph(t *testing.T, k, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v < k-1; v++ {
		b.AddEdge(v, v+1)
	}
	for v := k; v < n-1; v++ {
		b.AddEdge(v, v+1)
	}
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+(v*7)%23))
	}
	return b.MustBuild()
}

// The full dynamic-graph round trip: PUT names a graph by content, a
// graph_ref solve answers component-wise at full quality, a PATCH moves
// the handle to a new hash that old hashes still resolve to, and the
// post-PATCH solve reflects the mutation.
func TestGraphPutPatchSolve(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	g := twoIslandGraph(t, 8, 20)

	put := putGraph(t, ts, g)
	if put.Hash != g.HashString() || put.N != 20 || put.Components != 2 {
		t.Fatalf("put = %+v", put)
	}
	// Idempotent re-PUT resolves to the same handle.
	if again := putGraph(t, ts, g); again.Hash != put.Hash {
		t.Fatalf("re-put changed hash: %+v", again)
	}

	code, resp := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 3})
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("ref solve failed: %d %+v", code, resp)
	}
	if resp.Quality != "full" || resp.AnswerKey == "" || resp.GraphHash != put.Hash {
		t.Fatalf("ref solve response: %+v", resp)
	}
	if !g.IsIndependentSet(indicesToSet(g.N(), resp.Set)) {
		t.Fatal("ref answer is not independent")
	}

	code, patch := patchGraph(t, ts, put.Hash, graph.Edit{AddEdges: [][2]int32{{0, 19}}})
	if code != http.StatusOK {
		t.Fatalf("patch failed: %d %+v", code, patch)
	}
	if patch.PrevHash != put.Hash || patch.Hash == put.Hash || patch.Components != 1 {
		t.Fatalf("patch = %+v", patch)
	}
	// Bridging the islands destroyed both old components.
	if patch.InvalidatedComponents != 2 {
		t.Fatalf("invalidated %d components, want 2", patch.InvalidatedComponents)
	}
	if !patch.Healed || patch.AnswerKey == "" {
		t.Fatalf("patch should heal the prior full answer: %+v", patch)
	}

	// The old hash keeps resolving — to the CURRENT state.
	code, resp2 := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 3})
	if code != http.StatusOK || resp2.GraphHash != patch.Hash {
		t.Fatalf("stale-hash solve: %d %+v", code, resp2)
	}
	ng, _, err := g.ApplyEdit(graph.Edit{AddEdges: [][2]int32{{0, 19}}})
	if err != nil {
		t.Fatal(err)
	}
	if !ng.IsIndependentSet(indicesToSet(ng.N(), resp2.Set)) {
		t.Fatal("post-patch answer not independent on the new graph")
	}
}

// Self-healing end to end: the healed answer published by a PATCH starts
// degraded and is republished by the repair tier as improved and then full
// — each step independent, the final step bit-identical to a foreground
// solve of the new version.
func TestPatchHealsAndRepairTierUpgrades(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, RepairInterval: time.Millisecond})
	g := twoIslandGraph(t, 8, 20)
	put := putGraph(t, ts, g)

	if _, resp := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 3}); resp.Status != "done" {
		t.Fatalf("seed solve failed: %+v", resp)
	}
	_, patch := patchGraph(t, ts, put.Hash, graph.Edit{AddEdges: [][2]int32{{2, 13}}, Weights: []graph.WeightUpdate{{V: 5, W: 100}}})
	if !patch.Healed {
		t.Fatalf("expected heal: %+v", patch)
	}
	ng, _, err := g.ApplyEdit(graph.Edit{AddEdges: [][2]int32{{2, 13}}, Weights: []graph.WeightUpdate{{V: 5, W: 100}}})
	if err != nil {
		t.Fatal(err)
	}

	// The healed answer is available immediately at degraded-or-better
	// quality and is always independent on the new version.
	_, healed := getAnswer(t, ts, patch.AnswerKey)
	if healed.Quality == "" {
		t.Fatalf("healed answer missing: %+v", healed)
	}
	if !ng.IsIndependentSet(indicesToSet(ng.N(), healed.Set)) {
		t.Fatal("healed answer not independent")
	}

	full := waitQuality(t, ts, patch.AnswerKey, "full")
	if !ng.IsIndependentSet(indicesToSet(ng.N(), full.Set)) {
		t.Fatal("full upgrade not independent")
	}
	if full.GraphHash != patch.Hash {
		t.Fatalf("full answer hash %s, want %s", full.GraphHash, patch.Hash)
	}
	// Bit-identical to the foreground component-wise solve of the same
	// content: solving now must hit the cache entry the upgrade promoted.
	code, resp := postSolve(t, ts, SolveRequest{GraphRef: patch.Hash, Alg: "goodnodes", Seed: 3})
	if code != http.StatusOK {
		t.Fatalf("post-upgrade solve: %d %+v", code, resp)
	}
	if !resp.Cached {
		t.Fatalf("upgrade should have promoted the full answer into the cache: %+v", resp)
	}
	if resp.Weight != full.Weight || len(resp.Set) != len(full.Set) {
		t.Fatalf("cache-promoted answer differs: %+v vs %+v", resp, full)
	}
	for i := range resp.Set {
		if resp.Set[i] != full.Set[i] {
			t.Fatal("cache-promoted set not bit-identical to the published upgrade")
		}
	}
}

// A PATCH → graph_ref loop on one handle heals every version and queues an
// upgrade for each, but each version's foreground solve publishes the same
// key at full quality first. One Step settles the whole queue without
// running anything, and every healed key stays full under its own hash.
func TestPatchRefLoopSettlesRepairQueue(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, RepairInterval: time.Hour})
	g := twoIslandGraph(t, 8, 20)
	put := putGraph(t, ts, g)
	req := SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 3}
	if _, resp := postSolve(t, ts, req); resp.Status != "done" {
		t.Fatalf("seed solve failed: %+v", resp)
	}
	healed := map[string]string{} // answer key → graph hash
	for i := 0; i < 6; i++ {
		edit := graph.Edit{Weights: []graph.WeightUpdate{{V: int32(i), W: int64(40 + i)}}}
		if i%2 == 1 {
			edit = graph.Edit{AddEdges: [][2]int32{{int32(i), int32(10 + i)}}}
		}
		code, patch := patchGraph(t, ts, put.Hash, edit)
		if code != http.StatusOK || !patch.Healed {
			t.Fatalf("patch %d: %d %+v", i, code, patch)
		}
		healed[patch.AnswerKey] = patch.Hash
		req.GraphRef = patch.Hash
		code, resp := postSolve(t, ts, req)
		if code != http.StatusOK || resp.Quality != "full" || resp.AnswerKey != patch.AnswerKey {
			t.Fatalf("ref solve %d: %d %+v, want full under %s", i, code, resp, patch.AnswerKey)
		}
	}
	if st := s.Stats(); st.RepairQueueDepth != int64(len(healed)) {
		t.Fatalf("queue depth %d before the step, want %d", st.RepairQueueDepth, len(healed))
	}
	if s.repairTier.Step() {
		t.Fatal("Step did work although every queued key was already full")
	}
	st := s.Stats()
	if st.RepairQueueDepth != 0 || st.RepairSettled != int64(len(healed)) || st.RepairImproved != 0 || st.RepairUpgrades != 0 {
		t.Fatalf("after one step: %+v, want %d settled and nothing run", st, len(healed))
	}
	for key, hash := range healed {
		if _, a := getAnswer(t, ts, key); a.Quality != "full" || a.GraphHash != hash {
			t.Fatalf("answer %s: quality %q hash %s, want full under %s", key, a.Quality, short(a.GraphHash), short(hash))
		}
	}
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("maxisd_repair_settled_total %d\n", len(healed)); !strings.Contains(string(body), want) {
		t.Errorf("metrics output missing %q", want)
	}
}

// A healed key climbs in exactly two working steps of the repair tier: the
// greedy improved answer, then the full solve under the request's own
// algorithm. No other solve runs or publishes between them.
func TestPatchUpgradeTakesTwoSteps(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, RepairInterval: time.Hour})
	g := twoIslandGraph(t, 8, 20)
	put := putGraph(t, ts, g)
	if _, resp := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 3}); resp.Status != "done" {
		t.Fatalf("seed solve failed: %+v", resp)
	}
	_, patch := patchGraph(t, ts, put.Hash, graph.Edit{AddEdges: [][2]int32{{2, 13}}})
	if !patch.Healed {
		t.Fatalf("expected heal: %+v", patch)
	}
	// Each working step publishes at most once, so reading the key after
	// every step sees every publish.
	var climb []string
	for steps := 0; s.repairTier.Step(); steps++ {
		if steps == 10 {
			t.Fatal("repair tier never drained")
		}
		_, a := getAnswer(t, ts, patch.AnswerKey)
		climb = append(climb, a.Quality+"/"+a.Alg)
	}
	if want := []string{"improved/greedy-improved", "full/goodnodes"}; !slices.Equal(climb, want) {
		t.Fatalf("answer after each working step: %v, want %v", climb, want)
	}
	if st := s.Stats(); st.RepairImproved != 1 || st.RepairUpgrades != 1 || st.RepairQueueDepth != 0 {
		t.Fatalf("stats = %+v, want one improved and one full publish", st)
	}
}

// An upgrade whose degraded entry the answer registry has already evicted
// is republished under its own version's hash, and the full answer it
// promotes into the cache is tagged with that hash, so the next PATCH of
// the handle invalidates it.
func TestUpgradeAfterRegistryEvictionKeepsGraphHash(t *testing.T) {
	s := New(Options{Workers: 2, RepairInterval: time.Hour})
	s.answers = newAnswerRegistry(1)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain()
	})
	g := twoIslandGraph(t, 8, 20)
	put := putGraph(t, ts, g)
	if _, resp := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 3}); resp.Status != "done" {
		t.Fatalf("seed solve failed: %+v", resp)
	}
	_, patch := patchGraph(t, ts, put.Hash, graph.Edit{AddEdges: [][2]int32{{2, 13}}})
	if !patch.Healed {
		t.Fatalf("expected heal: %+v", patch)
	}
	// A solve of another handle publishes the registry's one entry,
	// evicting the healed answer before the tier upgrades it.
	other := putGraph(t, ts, twoIslandGraph(t, 5, 12))
	if _, resp := postSolve(t, ts, SolveRequest{GraphRef: other.Hash, Alg: "goodnodes", Seed: 3}); resp.Status != "done" {
		t.Fatalf("other solve failed: %+v", resp)
	}
	if code, _ := getAnswer(t, ts, patch.AnswerKey); code != http.StatusNotFound {
		t.Fatalf("healed answer not evicted: %d", code)
	}
	for s.repairTier.Step() {
	}
	_, a := getAnswer(t, ts, patch.AnswerKey)
	if a.Quality != "full" || a.GraphHash != patch.Hash {
		t.Fatalf("upgrade: quality %q hash %q, want full under %s", a.Quality, a.GraphHash, short(patch.Hash))
	}
	if _, ok := s.cache.get(patch.AnswerKey); !ok {
		t.Fatal("full upgrade not promoted into the cache")
	}
	patchGraph(t, ts, patch.Hash, graph.Edit{Weights: []graph.WeightUpdate{{V: 0, W: 9}}})
	if _, ok := s.cache.get(patch.AnswerKey); ok {
		t.Fatal("the promoted upgrade survived a PATCH of its version")
	}
}

// Degraded graph_ref solves are a deferred promise: the response carries
// the answer key, and the repair tier upgrades the published answer to
// full quality in the background.
func TestDegradedRefSolveSelfHeals(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, RepairInterval: time.Millisecond})
	g := gen.Weighted(gen.GNP(60, 0.08, 9), gen.PolyWeights(2), 9)
	put := putGraph(t, ts, g)

	code, resp := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 5, Degraded: true})
	if code != http.StatusOK || !resp.Degraded || resp.Quality != "degraded" || resp.AnswerKey == "" {
		t.Fatalf("degraded ref solve: %d %+v", code, resp)
	}
	full := waitQuality(t, ts, resp.AnswerKey, "full")
	if !g.IsIndependentSet(indicesToSet(g.N(), full.Set)) {
		t.Fatal("upgraded answer not independent")
	}
	// "full" is a provenance tag, not a weight claim: it promises the
	// answer the requested algorithm would have computed without shedding.
	// A later foreground solve must therefore agree bit for bit.
	code, again := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 5})
	if code != http.StatusOK || again.Weight != full.Weight || len(again.Set) != len(full.Set) {
		t.Fatalf("foreground solve disagrees with upgrade: %d %+v vs %+v", code, again, full)
	}
	for i := range again.Set {
		if again.Set[i] != full.Set[i] {
			t.Fatal("upgraded answer not bit-identical to the foreground solve")
		}
	}
}

// TestAnswerRegistryServesPublishedSet requires GET /v1/answers/{key} to
// decode the registry's packed set back to the set that was published:
// the members a full graph_ref solve answered with, and a set published
// directly whose gaps need multi-byte encodings.
func TestAnswerRegistryServesPublishedSet(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	g := gen.Weighted(gen.GNP(300, 0.02, 4), gen.PolyWeights(2), 4)
	put := putGraph(t, ts, g)
	code, resp := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "theorem2", Seed: 2})
	if code != http.StatusOK || resp.Quality != "full" || len(resp.Set) == 0 {
		t.Fatalf("ref solve: %d %+v", code, resp)
	}
	code, a := getAnswer(t, ts, resp.AnswerKey)
	if code != http.StatusOK || !slices.Equal(a.Set, resp.Set) || a.Size != resp.Size ||
		a.Weight != resp.Weight || a.Alg != resp.Alg || a.GraphHash != put.Hash {
		t.Fatalf("GET /v1/answers: %d %+v, want the set, size, weight and alg of %+v", code, a, resp)
	}

	wide := []int32{0, 127, 128, 1 << 14, 1<<21 + 3, 1<<27 + 9}
	s.answers.put(&storedAnswer{Key: "wide", members: graph.PackMembers(wide), Quality: qualityFull})
	if code, a := getAnswer(t, ts, "wide"); code != http.StatusOK || !slices.Equal(a.Set, wide) || a.Size != len(wide) {
		t.Fatalf("GET /v1/answers/wide: %d set %v size %d, want %v", code, a.Set, a.Size, wide)
	}
}

// A PATCH confined to one component invalidates exactly that component,
// and the untouched component's cached answer is reused by the next solve.
func TestComponentGranularInvalidation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	g := twoIslandGraph(t, 8, 20)
	put := putGraph(t, ts, g)

	if _, resp := postSolve(t, ts, SolveRequest{GraphRef: put.Hash, Alg: "goodnodes", Seed: 3}); resp.Status != "done" {
		t.Fatalf("seed solve failed: %+v", resp)
	}
	// Edit inside the second island only.
	code, patch := patchGraph(t, ts, put.Hash, graph.Edit{AddEdges: [][2]int32{{9, 18}}})
	if code != http.StatusOK || patch.InvalidatedComponents != 1 {
		t.Fatalf("one-island patch: %d %+v", code, patch)
	}
	_, _, _, _, invalidations, _, _ := s.cache.stats()
	if invalidations == 0 {
		t.Fatal("invalidation evicted no cache entries")
	}
	if _, resp := postSolve(t, ts, SolveRequest{GraphRef: patch.Hash, Alg: "goodnodes", Seed: 3}); resp.Status != "done" {
		t.Fatalf("post-patch solve failed: %+v", resp)
	}
}

// The graph journal: every PUT and PATCH is durable before its ack, a
// restart replays them bit-identically (verified against the journaled
// hashes), aliases survive, and the journal is snapshot-compacted to put
// records only.
func TestGraphJournalReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graphs.wal")
	g := twoIslandGraph(t, 8, 20)
	edit := graph.Edit{AddEdges: [][2]int32{{0, 19}}, Weights: []graph.WeightUpdate{{V: 1, W: 50}}}

	s1 := New(Options{Workers: 2})
	if _, n, err := s1.OpenJournal(path); err != nil || n != 0 {
		t.Fatalf("first open: n=%d err=%v", n, err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	put := putGraph(t, ts1, g)
	code, patch := patchGraph(t, ts1, put.Hash, edit)
	if code != http.StatusOK {
		t.Fatalf("patch: %d %+v", code, patch)
	}
	ts1.Close()
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Workers: 2})
	_, replayed, err := s2.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (put + patch)", replayed)
	}
	t.Cleanup(func() { _ = s2.Drain(); _ = s2.Close() })

	// Both the current hash and the pre-patch alias resolve to the state
	// the dead process acknowledged.
	for _, h := range []string{patch.Hash, put.Hash} {
		ver, ok := s2.graphs.snapshot(h)
		if !ok {
			t.Fatalf("hash %s lost across restart", h)
		}
		rg := ver.g
		if ver.hash != patch.Hash || rg.HashString() != patch.Hash {
			t.Fatalf("replayed state %s, want %s", ver.hash, patch.Hash)
		}
		if rg.Weight(1) != 50 || !rg.HasEdge(0, 19) {
			t.Fatal("replayed graph missing the journaled mutation")
		}
	}

	// Compaction: the rewritten journal holds one put snapshot, no patches.
	f, err := reliable.ReadWAL(bytes.NewReader(readFile(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 1 {
		t.Fatalf("compacted journal has %d records, want 1 snapshot", len(f))
	}
	var d graphWALData
	if err := json.Unmarshal(f[0].Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Kind != "put" || len(d.Aliases) != 1 || d.Aliases[0] != put.Hash {
		t.Fatalf("snapshot record = kind %s aliases %v", d.Kind, d.Aliases)
	}
}

// refObservation is what a client sees of one graph version: the handle's
// hash and component count, and a graph_ref answer with its key.
type refObservation struct {
	Hash       string  `json:"hash"`
	Components int     `json:"components"`
	AnswerKey  string  `json:"answer_key"`
	GraphHash  string  `json:"graph_hash"`
	Set        []int32 `json:"set"`
	Weight     int64   `json:"weight"`
}

func observeRef(t *testing.T, ts *httptest.Server, hash string) []byte {
	t.Helper()
	httpResp, err := http.Get(ts.URL + "/v1/graph/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var info PutGraphResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	code, resp := postSolve(t, ts, SolveRequest{GraphRef: hash, Alg: "theorem2", Seed: 4})
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("ref solve of %s: %d %+v", short(hash), code, resp)
	}
	out, err := json.Marshal(refObservation{
		Hash:       info.Hash,
		Components: info.Components,
		AnswerKey:  resp.AnswerKey,
		GraphHash:  resp.GraphHash,
		Set:        resp.Set,
		Weight:     resp.Weight,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Journal replay re-derives every version the dead process served: after a
// journaled chain of PATCHes and graph_ref solves — weight updates, an
// in-component toggle, a split, and edges joining components — a restart
// replays the journal to the same hashes, component counts, answer keys
// and ref answers, byte for byte, and the replayed version carries its
// components into the next PATCH exactly as the live one did.
func TestGraphJournalReplayMatchesRefChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graphs.wal")
	g := islandGraph(5, 20, 0.1, 3)
	chain := []graph.Edit{
		{Weights: []graph.WeightUpdate{{V: 3, W: 400}}},
		{AddEdges: [][2]int32{{21, 35}}},
		{RemoveEdges: [][2]int32{{21, 35}}, Weights: []graph.WeightUpdate{{V: 60, W: 7}}},
		{RemoveEdges: [][2]int32{{66, 67}, {67, 68}}}, // node 67 splits off
		{AddEdges: [][2]int32{{19, 20}, {59, 99}}},    // two pairs of components join
	}
	wantComponents := []int{5, 5, 5, 6, 4}
	boot := func() (*Server, *httptest.Server, int) {
		s := New(Options{Workers: 2})
		_, n, err := s.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler()), n
	}
	stop := func(s *Server, ts *httptest.Server) {
		ts.Close()
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	s1, ts1, _ := boot()
	put := putGraph(t, ts1, g)
	var seen [][]byte
	observeRef(t, ts1, put.Hash)
	for i, e := range chain {
		code, patch := patchGraph(t, ts1, put.Hash, e)
		if code != http.StatusOK {
			t.Fatalf("patch %d: %d %+v", i, code, patch)
		}
		obs := observeRef(t, ts1, patch.Hash)
		var o refObservation
		if err := json.Unmarshal(obs, &o); err != nil {
			t.Fatal(err)
		}
		if o.Components != wantComponents[i] {
			t.Fatalf("patch %d: %d components, want %d", i, o.Components, wantComponents[i])
		}
		if o.Hash != patch.Hash || o.Components != patch.Components || o.AnswerKey != patch.AnswerKey {
			t.Fatalf("patch %d: response %+v disagrees with the ref solve %s", i, patch, obs)
		}
		seen = append(seen, obs)
	}
	stop(s1, ts1)

	// The whole chain replays from the journal to the last version.
	s2, ts2, replayed := boot()
	if replayed != 1+len(chain) {
		t.Fatalf("replayed %d records, want %d", replayed, 1+len(chain))
	}
	if got, want := observeRef(t, ts2, put.Hash), seen[len(seen)-1]; !bytes.Equal(got, want) {
		t.Fatalf("replayed final version:\n got  %s\n want %s", got, want)
	}
	stop(s2, ts2)

	// The same chain with a restart before every PATCH: each version is
	// re-derived from a replayed predecessor.
	path = filepath.Join(t.TempDir(), "graphs.wal")
	s, ts, _ := boot()
	putGraph(t, ts, g)
	for i, e := range chain {
		if code, patch := patchGraph(t, ts, put.Hash, e); code != http.StatusOK {
			t.Fatalf("patch %d: %d %+v", i, code, patch)
		}
		stop(s, ts)
		s, ts, _ = boot()
		if got := observeRef(t, ts, put.Hash); !bytes.Equal(got, seen[i]) {
			t.Fatalf("version %d after restart:\n got  %s\n want %s", i+1, got, seen[i])
		}
	}
	stop(s, ts)
}

// Crash-mid-PATCH simulation: a journaled-but-unacknowledged mutation is
// exactly as durable as an acknowledged one. Writing the apply record by
// hand and booting replays it.
func TestGraphJournalRecoversUnackedPatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graphs.wal")
	g := twoIslandGraph(t, 8, 20)
	edit := graph.Edit{AddEdges: [][2]int32{{3, 15}}}
	ng, _, err := g.ApplyEdit(edit)
	if err != nil {
		t.Fatal(err)
	}

	wal, _, err := reliable.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	putData, _ := json.Marshal(graphWALData{Kind: "put", Graph: buf.Bytes()})
	if err := wal.Apply("g-1", json.RawMessage(putData)); err != nil {
		t.Fatal(err)
	}
	patchData, _ := json.Marshal(graphWALData{Kind: "patch", Prev: g.HashString(), Next: ng.HashString(), Edit: &edit})
	if err := wal.Apply("g-1", json.RawMessage(patchData)); err != nil {
		t.Fatal(err)
	}
	wal.Close() // the crash: no ack ever left the process

	s := New(Options{Workers: 1})
	if _, _, err := s.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Drain(); _ = s.Close() })
	ver, ok := s.graphs.snapshot(ng.HashString())
	if !ok || !ver.g.HasEdge(3, 15) {
		t.Fatal("journaled-but-unacked mutation lost")
	}
}

// PATCH error surface: unknown handles 404, malformed edits 400, and a
// failed edit moves nothing.
func TestPatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	g := twoIslandGraph(t, 4, 8)
	put := putGraph(t, ts, g)

	if code, _ := patchGraph(t, ts, "deadbeef", graph.Edit{AddEdges: [][2]int32{{0, 1}}}); code != http.StatusNotFound {
		t.Fatalf("unknown hash: %d", code)
	}
	if code, _ := patchGraph(t, ts, put.Hash, graph.Edit{}); code != http.StatusBadRequest {
		t.Fatalf("empty edit: %d", code)
	}
	if code, _ := patchGraph(t, ts, put.Hash, graph.Edit{AddEdges: [][2]int32{{0, 99}}}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range edit: %d", code)
	}
	if code, resp := patchGraph(t, ts, put.Hash, graph.Edit{Weights: []graph.WeightUpdate{{V: 0, W: -1}}}); code != http.StatusBadRequest || resp.Error == "" {
		t.Fatalf("negative weight: %d %+v", code, resp)
	}
	// The handle is untouched by the failures.
	httpResp, err := http.Get(ts.URL + "/v1/graph/" + put.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var info PutGraphResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Hash != put.Hash || info.Version != 0 {
		t.Fatalf("failed patches moved the handle: %+v", info)
	}
}

// graph_ref request-shape validation: async is rejected, unknown refs 404.
func TestRefSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if code, _ := postSolve(t, ts, SolveRequest{GraphRef: "abc", Async: true}); code != http.StatusBadRequest {
		t.Fatalf("async ref solve: %d", code)
	}
	if code, _ := postSolve(t, ts, SolveRequest{GraphRef: "abc"}); code != http.StatusNotFound {
		t.Fatalf("unknown ref: %d", code)
	}
	if code, _ := postSolve(t, ts, SolveRequest{}); code != http.StatusBadRequest {
		t.Fatalf("no source: %d", code)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
