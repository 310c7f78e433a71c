package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// keyOfBytes is the cache key as the bytes define it: the SHA-256 of the
// canonical form, a zero byte and the fingerprint.
func keyOfBytes(canon []byte, fingerprint string) string {
	h := sha256.New()
	h.Write(canon)
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamedKeyMatchesCanonicalBytes pins the streamed content hash and
// cache key to the canonical bytes they are defined on, for every
// generator kind and weight family, for canonical graphs with negative
// weights and for 64-bit identifiers: the hash is
// graph.HashCanonical(g.Canonical()) and the key is keyOfBytes, whether
// the request carried the bytes or the server streamed them from g.
func TestStreamedKeyMatchesCanonicalBytes(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, kind := range gen.Kinds() {
		for _, w := range gen.WeightFamilies() {
			g, err := gen.Spec{Kind: kind, N: 12, P: 0.3, K: 3, Weights: w, Seed: 5}.Build()
			if err != nil {
				t.Fatal(err)
			}
			graphs[kind+"/"+w] = g
		}
	}
	base := gen.Weighted(gen.GNP(60, 0.1, 3), gen.PolyWeights(2), 3)
	w := base.Weights()
	for v := range w {
		w[v] -= 2000
	}
	negative, err := graph.FromCanonical(base.WithWeights(w).Canonical())
	if err != nil {
		t.Fatal(err)
	}
	graphs["canonical/negative"] = negative
	b := graph.NewBuilder(50)
	for v := 0; v < 50; v++ {
		b.SetID(v, 1<<63+uint64(v)*1_000_003)
		b.AddEdge(v, (v+7)%50)
	}
	graphs["ids/64-bit"] = b.MustBuild()

	fp := (&SolveRequest{Alg: "theorem2", Eps: 0.5, Seed: 1}).Fingerprint()
	for name, g := range graphs {
		canon := g.Canonical()
		for _, carried := range [][]byte{nil, canon} {
			key, hash := cacheKey(g, carried, fp)
			if hash != graph.HashCanonical(canon) || hash != g.HashString() {
				t.Errorf("%s (carried %v): hash %s, want %s", name, carried != nil, hash, graph.HashCanonical(canon))
			}
			if want := keyOfBytes(canon, fp); key != want {
				t.Errorf("%s (carried %v): key %s, want %s", name, carried != nil, key, want)
			}
		}
	}
}

// TestStoredFormsAreExactlySized requires the canonical form a graph
// handle keeps to hold no spare capacity, after the PUT that encodes it
// and after every PATCH that splices it.
func TestStoredFormsAreExactlySized(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	put := putGraph(t, ts, islandGraph(4, 40, 0.08, 2))
	check := func(stage string) {
		t.Helper()
		ver, ok := s.graphs.snapshot(put.Hash)
		if !ok {
			t.Fatalf("%s: handle %s is gone", stage, put.Hash)
		}
		if b := ver.form.Bytes; cap(b) != len(b) {
			t.Errorf("%s: the stored form has capacity %d for %d bytes", stage, cap(b), len(b))
		}
	}
	check("PUT")
	edits := []graph.Edit{
		{Weights: []graph.WeightUpdate{{V: 3, W: 1 << 40}}},
		{AddEdges: [][2]int32{{0, 39}, {40, 120}}},
		{RemoveEdges: [][2]int32{{0, 39}}},
	}
	for i, e := range edits {
		if code, resp := patchGraph(t, ts, put.Hash, e); code != http.StatusOK {
			t.Fatalf("PATCH %d: %d %+v", i, code, resp)
		}
		check(fmt.Sprintf("PATCH %d", i))
	}
}
