package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func randomGraph(t testing.TB, r *rand.Rand, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(r.IntN(1000)))
		b.SetID(v, uint64(v+1)*7919)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.IntN(4) == 0 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func TestCanonicalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(t, r, 1+r.IntN(40))
		data := g.Canonical()
		got, err := FromCanonical(data)
		if err != nil {
			t.Fatalf("trial %d: FromCanonical: %v", trial, err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("trial %d: size mismatch: got n=%d m=%d want n=%d m=%d",
				trial, got.N(), got.M(), g.N(), g.M())
		}
		if !bytes.Equal(got.Canonical(), data) {
			t.Fatalf("trial %d: canonical form not a fixed point", trial)
		}
		if got.Hash() != g.Hash() {
			t.Fatalf("trial %d: hash changed across round trip", trial)
		}
		for v := 0; v < g.N(); v++ {
			if got.Weight(v) != g.Weight(v) || got.ID(v) != g.ID(v) {
				t.Fatalf("trial %d: node %d weight/id mismatch", trial, v)
			}
		}
	}
}

func TestCanonicalRoundTripNegativeWeights(t *testing.T) {
	// Local-ratio-derived graphs carry zero and negative weights; the
	// canonical form must preserve them even though NewBuilder rejects them.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild().WithWeights([]int64{-5, 0, 17})
	got, err := FromCanonical(g.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if got.Weight(v) != g.Weight(v) {
			t.Fatalf("node %d: weight %d, want %d", v, got.Weight(v), g.Weight(v))
		}
	}
}

func TestCanonicalEdgeOrderInvariance(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}}
	build := func(perm []int) *Graph {
		b := NewBuilder(4)
		for _, i := range perm {
			b.AddEdge(edges[i][0], edges[i][1])
		}
		// Duplicate one edge: Build de-duplicates, so the content is equal.
		b.AddEdge(edges[perm[0]][1], edges[perm[0]][0])
		return b.MustBuild()
	}
	want := build([]int{0, 1, 2, 3, 4}).HashString()
	for _, perm := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}} {
		if got := build(perm).HashString(); got != want {
			t.Fatalf("hash depends on edge insertion order: %s vs %s", got, want)
		}
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder(4)
		b.AddEdge(0, 1)
		b.AddEdge(2, 3)
		return b
	}
	g0 := base().MustBuild()
	seen := map[string]string{g0.HashString(): "base"}

	variants := map[string]*Graph{}
	b := base()
	b.AddEdge(1, 2)
	variants["extra-edge"] = b.MustBuild()
	b = base()
	b.SetWeight(0, 2)
	variants["weight-change"] = b.MustBuild()
	b = base()
	b.SetID(0, 99)
	variants["id-change"] = b.MustBuild()
	variants["node-count"] = NewBuilder(5).MustBuild()

	for name, g := range variants {
		h := g.HashString()
		if prev, dup := seen[h]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func TestHashCollisionSweep(t *testing.T) {
	// A birthday-style smoke test: many distinct random graphs, all hashes
	// distinct. A single collision here would point at an encoding bug
	// (e.g. ambiguous varint framing), not at SHA-256.
	r := rand.New(rand.NewPCG(7, 7))
	seen := make(map[string]bool)
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(t, r, 2+r.IntN(16))
		h := g.HashString()
		if seen[h] {
			// Distinct trials can legitimately produce identical graphs;
			// verify content equality before declaring a collision.
			continue
		}
		seen[h] = true
	}
	if len(seen) < 250 {
		t.Fatalf("only %d distinct hashes across 300 random graphs", len(seen))
	}
}

// canonicalBytes assembles a canonical form by hand: magic, n, m, then the
// given identifiers, weights and edge endpoints, each a minimal varint.
func canonicalBytes(n, m uint64, ids []uint64, weights []int64, edges ...uint64) []byte {
	b := append([]byte{}, canonicalMagic...)
	b = binary.AppendUvarint(b, n)
	b = binary.AppendUvarint(b, m)
	for _, id := range ids {
		b = binary.AppendUvarint(b, id)
	}
	for _, w := range weights {
		b = binary.AppendVarint(b, w)
	}
	for _, x := range edges {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// TestFromCanonicalRejectsGarbage covers malformed input, and every input
// shape FromCanonical refuses although it could decode it: each would
// either allocate far more than the input's size, or decode to a graph
// whose canonical form differs from the input, so that two byte strings
// would name one graph.
func TestFromCanonicalRejectsGarbage(t *testing.T) {
	data := randomGraph(t, rand.New(rand.NewPCG(3, 3)), 12).Canonical()
	ids, w := []uint64{1, 2, 3}, []int64{1, 1, 1}
	valid := canonicalBytes(3, 2, ids, w, 0, 1, 1, 2)
	if _, err := FromCanonical(valid); err != nil {
		t.Fatalf("hand-built valid form rejected: %v", err)
	}
	padded := append([]byte{}, canonicalMagic...)
	padded = append(padded, 0x83, 0x00) // n = 3 in two bytes
	padded = append(padded, valid[len(canonicalMagic)+1:]...)
	paddedWeight := canonicalBytes(3, 2, ids, nil)
	paddedWeight = append(paddedWeight, 0x82, 0x00, 0x02, 0x02) // weight 1 in two bytes
	paddedWeight = binary.AppendUvarint(paddedWeight, 0)
	paddedWeight = append(paddedWeight, 1, 1, 2)

	cases := []struct {
		name, want string
		in         []byte
	}{
		{"empty", "bad magic", nil},
		{"bad-magic", "bad magic", []byte("XXXXX123")},
		{"short-head", "bad magic", data[:3]},
		{"truncated", "", data[:len(data)/2]},
		{"trailing", "trailing", append(append([]byte{}, data...), 0x01)},
		{"huge-n", "do not fit", canonicalBytes(1<<31, 0, nil, nil)},
		{"huge-m", "do not fit", canonicalBytes(3, 1<<31, ids, w)},
		{"n-beyond-input", "do not fit", canonicalBytes(4, 0, ids, w)},
		{"m-beyond-input", "do not fit", canonicalBytes(3, 3, ids, w, 0, 1, 1, 2)},
		{"varint-overflow", "overflows", append(append([]byte{}, canonicalMagic...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"padded-count", "not minimally encoded", padded},
		{"padded-weight", "not minimally encoded", paddedWeight},
		{"duplicate-edge", "does not follow", canonicalBytes(3, 2, ids, w, 0, 1, 0, 1)},
		{"unsorted-edges", "does not follow", canonicalBytes(3, 2, ids, w, 1, 2, 0, 1)},
		{"unsorted-second-endpoint", "does not follow", canonicalBytes(3, 2, ids, w, 0, 2, 0, 1)},
		{"reversed-edge", "bad edge", canonicalBytes(3, 1, ids, w, 1, 0)},
		{"self-loop", "bad edge", canonicalBytes(3, 1, ids, w, 1, 1)},
		{"endpoint-out-of-range", "bad edge", canonicalBytes(3, 1, ids, w, 0, 3)},
		{"duplicate-id", "share identifier", canonicalBytes(3, 0, []uint64{4, 4, 5}, w)},
	}
	for _, tc := range cases {
		_, err := FromCanonical(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestFromCanonicalHugeHeaderAllocatesNothing: a dozen bytes claiming
// n = 2³¹ nodes are refused before any node array is allocated.
func TestFromCanonicalHugeHeaderAllocatesNothing(t *testing.T) {
	in := canonicalBytes(1<<31, 1<<32, nil, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		if _, err := FromCanonical(in); err == nil {
			t.Fatal("huge header accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 1024 {
		t.Fatalf("rejecting a %d-byte header allocated %d bytes per call", len(in), perCall)
	}
}

func FuzzFromCanonical(f *testing.F) {
	f.Add(randomGraph(f, rand.New(rand.NewPCG(5, 5)), 9).Canonical())
	f.Add(NewBuilder(0).MustBuild().Canonical())
	f.Add(NewBuilder(3).MustBuild().WithWeights([]int64{-5, 0, 17}).Canonical())
	f.Add(canonicalBytes(3, 2, []uint64{1, 2, 3}, []int64{1, 1, 1}, 0, 1, 0, 1))
	f.Add(canonicalBytes(1<<31, 0, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FromCanonical(data)
		if err != nil {
			return // malformed inputs must only error, never panic
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		if got := g.Canonical(); !bytes.Equal(got, data) {
			t.Fatalf("accepted input does not round-trip:\n in  %x\n out %x", data, got)
		}
	})
}

// A chain of 1000 edits, each version's form spliced from the previous
// spliced form, never drifts from a fresh encode: the bytes match
// Canonical() and the whole layout matches CanonicalForm() at every step.
func TestSpliceCanonicalChain(t *testing.T) {
	r := rand.New(rand.NewPCG(20, 20))
	g := randomGraph(t, r, 160)
	form := g.CanonicalForm()
	n := int32(g.N())
	node := func() int32 {
		switch r.IntN(8) {
		case 0:
			return 0
		case 1:
			return n - 1
		}
		return r.Int32N(n)
	}
	pair := func() [2]int32 {
		u := node()
		v := node()
		for v == u {
			v = r.Int32N(n)
		}
		return [2]int32{u, v}
	}
	for step := 0; step < 1000; step++ {
		var e Edit
		for ops := 1 + r.IntN(3); ops > 0; ops-- {
			switch r.IntN(3) {
			case 0:
				e.AddEdges = append(e.AddEdges, pair())
			case 1:
				e.RemoveEdges = append(e.RemoveEdges, pair())
			case 2:
				e.Weights = append(e.Weights, WeightUpdate{V: node(), W: 1<<r.IntN(16) - int64(r.IntN(2))})
			}
		}
		ng, rep, err := g.ApplyEdit(e)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		next := ng.SpliceCanonical(form, rep)
		if !bytes.Equal(next.Bytes, ng.Canonical()) {
			t.Fatalf("step %d: edit %+v: spliced bytes differ from Canonical()", step, e)
		}
		if cap(next.Bytes) != len(next.Bytes) {
			t.Fatalf("step %d: edit %+v: spliced form has capacity %d for %d bytes", step, e, cap(next.Bytes), len(next.Bytes))
		}
		if full := ng.CanonicalForm(); next.IDs != full.IDs || next.Weights != full.Weights ||
			next.Edges != full.Edges || !slices.Equal(next.Runs, full.Runs) {
			t.Fatalf("step %d: edit %+v: spliced layout differs from CanonicalForm()", step, e)
		}
		g, form = ng, next
	}
}

// TestWriteCanonicalMatchesCanonical streams random graphs — with 64-bit
// identifiers and with negative weights among them — and requires the
// stream to be exactly Canonical(), whose buffer holds no spare capacity,
// and Hash to be the SHA-256 of those bytes.
func TestWriteCanonicalMatchesCanonical(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(t, r, r.IntN(90))
		if trial%3 == 1 {
			b := NewBuilder(g.N())
			for v := 0; v < g.N(); v++ {
				b.SetID(v, 1<<63+uint64(v)*1_000_003)
				for _, u := range g.Neighbors(v) {
					if int(u) > v {
						b.AddEdge(v, int(u))
					}
				}
			}
			g = b.MustBuild()
		}
		if trial%3 == 2 {
			w := g.Weights()
			for v := range w {
				w[v] -= int64(r.IntN(2000))
			}
			g = g.WithWeights(w)
		}
		canon := g.Canonical()
		if cap(canon) != len(canon) {
			t.Fatalf("trial %d: Canonical has capacity %d for %d bytes", trial, cap(canon), len(canon))
		}
		if form := g.CanonicalForm(); !bytes.Equal(form.Bytes, canon) || cap(form.Bytes) != len(form.Bytes) {
			t.Fatalf("trial %d: CanonicalForm bytes differ from Canonical or carry spare capacity", trial)
		}
		var streamed bytes.Buffer
		g.WriteCanonical(&streamed)
		if !bytes.Equal(streamed.Bytes(), canon) {
			t.Fatalf("trial %d: WriteCanonical streamed %d bytes unlike Canonical's %d", trial, streamed.Len(), len(canon))
		}
		if sum := g.Hash(); sum != sha256.Sum256(canon) || g.HashString() != HashCanonical(canon) {
			t.Fatalf("trial %d: streamed hash differs from the hash of Canonical()", trial)
		}
	}
}
