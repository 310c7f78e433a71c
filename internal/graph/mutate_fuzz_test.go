package graph

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// applyEditRebuild is the reference semantics of ApplyEdit: validate, then
// rebuild the whole graph through a Builder from a map of every edge. The
// CSR splice must agree with it on content, report and errors.
func applyEditRebuild(g *Graph, e Edit) (*Graph, EditReport, error) {
	n := g.N()
	rep := EditReport{Touched: make([]bool, n)}
	checkEdge := func(u, v int32) error {
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return fmt.Errorf("graph: edit edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if u == v {
			return fmt.Errorf("graph: edit self-loop at node %d", u)
		}
		return nil
	}
	for _, e := range e.AddEdges {
		if err := checkEdge(e[0], e[1]); err != nil {
			return nil, EditReport{}, err
		}
	}
	for _, e := range e.RemoveEdges {
		if err := checkEdge(e[0], e[1]); err != nil {
			return nil, EditReport{}, err
		}
	}
	for _, wu := range e.Weights {
		if wu.V < 0 || int(wu.V) >= n {
			return nil, EditReport{}, fmt.Errorf("graph: edit weight for node %d out of range [0,%d)", wu.V, n)
		}
		if wu.W < 0 {
			return nil, EditReport{}, fmt.Errorf("graph: edit weight %d for node %d is negative", wu.W, wu.V)
		}
	}

	removed := make(map[[2]int32]bool, len(e.RemoveEdges))
	for _, ed := range e.RemoveEdges {
		removed[edgeKey(ed)] = false // flips true when it removes a real edge
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetID(v, g.ID(v))
		b.SetWeight(v, g.Weight(v))
	}
	for _, wu := range e.Weights {
		b.SetWeight(int(wu.V), wu.W)
		rep.WeightsSet++
		rep.Touched[wu.V] = true
	}
	present := make(map[[2]int32]bool, g.M()+len(e.AddEdges))
	for v := 0; v < n; v++ {
		for _, un := range g.Neighbors(v) {
			if int(un) <= v {
				continue
			}
			key := [2]int32{int32(v), un}
			if _, drop := removed[key]; drop {
				removed[key] = true
				rep.EdgesRemoved++
				rep.Touched[key[0]] = true
				rep.Touched[key[1]] = true
				continue
			}
			present[key] = true
			b.AddEdge(v, int(un))
		}
	}
	for _, hit := range removed {
		if !hit {
			rep.Noops++
		}
	}
	for _, ed := range e.AddEdges {
		key := edgeKey(ed)
		if present[key] {
			rep.Noops++
			continue
		}
		present[key] = true
		b.AddEdge(int(key[0]), int(key[1]))
		rep.EdgesAdded++
		rep.Touched[key[0]] = true
		rep.Touched[key[1]] = true
	}
	ng, err := b.Build()
	if err != nil {
		return nil, EditReport{}, fmt.Errorf("graph: edit rebuild: %w", err)
	}
	return ng, rep, nil
}

// fuzzEdit decodes ops three bytes at a time into an edit on an n-node
// graph. Endpoints range over [-1, n], so out-of-range nodes, self-loops,
// duplicate adds and remove-then-add of one edge all occur on small n.
// Weights range over [-8, 247], so negative weights occur too, or are a
// power of two up to 2^15 or one less, so a weight crosses every varint
// length boundary of the canonical form (63/64, 127/128, 8191/8192,
// 16383/16384).
func fuzzEdit(n int, ops []byte) Edit {
	node := func(b byte) int32 { return int32(int(b)%(n+2)) - 1 }
	var e Edit
	for i := 0; i+2 < len(ops); i += 3 {
		u, v, b := node(ops[i+1]), node(ops[i+2]), ops[i+2]
		switch ops[i] % 4 {
		case 0:
			e.AddEdges = append(e.AddEdges, [2]int32{u, v})
		case 1:
			e.RemoveEdges = append(e.RemoveEdges, [2]int32{u, v})
		case 2:
			e.Weights = append(e.Weights, WeightUpdate{V: u, W: int64(b) - 8})
		case 3:
			e.Weights = append(e.Weights, WeightUpdate{V: u, W: 1<<(b%16) - int64(b/16%2)})
		}
	}
	return e
}

func FuzzApplyEdit(f *testing.F) {
	f.Add(uint64(1), uint8(6), []byte{0, 1, 2, 0, 2, 1, 0, 1, 2})     // duplicate adds
	f.Add(uint64(2), uint8(6), []byte{1, 1, 2, 0, 1, 2})              // remove then add one edge
	f.Add(uint64(3), uint8(6), []byte{1, 1, 2, 1, 2, 1, 2, 3, 20})    // duplicate removes, a weight
	f.Add(uint64(4), uint8(5), []byte{0, 0, 9})                       // out of range
	f.Add(uint64(5), uint8(5), []byte{0, 3, 3})                       // self-loop
	f.Add(uint64(6), uint8(5), []byte{2, 3, 2})                       // negative weight
	f.Add(uint64(7), uint8(0), []byte{})                              // empty graph, empty edit
	f.Add(uint64(1<<40|8), uint8(7), []byte{2, 1, 30, 0, 1, 4})       // negative receiver weights
	f.Add(uint64(9), uint8(23), []byte{0, 1, 20, 1, 5, 6, 2, 7, 100}) // mixed
	// Weights 63, 64, 127, 128, then 8191, 8192, 16383, 16384.
	f.Add(uint64(10), uint8(6), []byte{3, 2, 22, 3, 3, 6, 3, 4, 23, 3, 5, 7})
	f.Add(uint64(11), uint8(6), []byte{3, 2, 29, 3, 3, 13, 3, 4, 30, 3, 5, 14})
	// n = 130: edge {128,129}, removal at 129, weight at 129 = n-1.
	f.Add(uint64(12), uint8(245), []byte{0, 129, 130, 1, 5, 130, 2, 130, 200, 0, 1, 129})
	f.Add(uint64(13), uint8(6), []byte{1, 1, 6, 0, 1, 3, 2, 6, 50, 3, 1, 14}) // nodes 0 and n-1
	f.Add(uint64(14), uint8(6), []byte{1, 2, 3, 1, 2, 3, 0, 4, 5, 0, 4, 5})   // repeated ops
	f.Add(uint64(15), uint8(12), []byte{                                      // multi-op
		0, 1, 12, 0, 2, 9, 1, 3, 4, 3, 12, 45, 1, 1, 12, 0, 6, 7, 2, 9, 140, 1, 8, 11,
	})
	f.Add(uint64(16), uint8(6), []byte{}) // no-op edit
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, ops []byte) {
		n := int(nRaw % 24)
		if nRaw >= 240 {
			n = 120 + 2*int(nRaw-240) // node indices past 127 take two varint bytes
		}
		r := rand.New(rand.NewPCG(seed, 7))
		g := randomGraph(t, r, n)
		if seed&(1<<40) != 0 && n > 0 {
			// A local-ratio-derived receiver: Build's weight rule fails on
			// the result unless the edit overwrites the negative weight.
			w := g.Weights()
			w[r.IntN(n)] = -3
			g = g.WithWeights(w)
		}
		e := fuzzEdit(n, ops)
		before := g.Canonical()
		form := g.CanonicalForm()

		got, gotRep, gotErr := g.ApplyEdit(e)
		want, wantRep, wantErr := applyEditRebuild(g, e)
		if !bytes.Equal(g.Canonical(), before) {
			t.Fatal("ApplyEdit modified its receiver")
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("edit %+v: error %v, reference %v", e, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("edit %+v: %v", e, err)
		}
		if !bytes.Equal(got.Canonical(), want.Canonical()) {
			t.Fatalf("edit %+v: spliced graph differs from the rebuild", e)
		}
		if got.MaxDegree() != want.MaxDegree() {
			t.Fatalf("edit %+v: MaxDegree %d, reference %d", e, got.MaxDegree(), want.MaxDegree())
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("edit %+v: report %+v, reference %+v", e, gotRep, wantRep)
		}
		spliced := got.SpliceCanonical(form, gotRep)
		if !bytes.Equal(spliced.Bytes, got.Canonical()) {
			t.Fatalf("edit %+v: spliced canonical bytes differ from Canonical()", e)
		}
		if full := got.CanonicalForm(); !reflect.DeepEqual(spliced, full) {
			t.Fatalf("edit %+v: spliced layout %v %v %v %v, encoded %v %v %v %v", e,
				spliced.IDs, spliced.Weights, spliced.Edges, spliced.Runs, full.IDs, full.Weights, full.Edges, full.Runs)
		}
		if !reflect.DeepEqual(form, g.CanonicalForm()) {
			t.Fatal("SpliceCanonical modified the parent form")
		}
	})
}
