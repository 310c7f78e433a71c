package graph

import "fmt"

// This file is the mutation seam of the otherwise-immutable Graph type.
// Graphs stay immutable: an Edit never modifies its receiver, it rebuilds a
// new Graph with the edit applied. That keeps every existing consumer —
// solvers, caches, in-flight solves holding a *Graph — sound under
// concurrent mutation: a PATCH produces a new value while old snapshots
// keep answering for the content they were asked about.

// WeightUpdate assigns node V the weight W.
type WeightUpdate struct {
	V int32 `json:"v"`
	W int64 `json:"w"`
}

// Edit is one batch of graph mutations: edges to add, edges to remove and
// node weights to update. Node count and identifiers are fixed for the
// lifetime of a graph handle — dynamic workloads mutate topology and
// weights, not the vertex set, which is what keeps answer sets index-stable
// across versions.
// The JSON tags are the PATCH wire format of the serving tier and the
// journal format of its graph WAL; renaming one is a breaking change to
// both persisted journals and clients.
type Edit struct {
	AddEdges    [][2]int32     `json:"add_edges,omitempty"`
	RemoveEdges [][2]int32     `json:"remove_edges,omitempty"`
	Weights     []WeightUpdate `json:"weights,omitempty"`
}

// Empty reports whether the edit changes nothing.
func (e Edit) Empty() bool {
	return len(e.AddEdges) == 0 && len(e.RemoveEdges) == 0 && len(e.Weights) == 0
}

// EditReport summarises what an ApplyEdit actually changed.
type EditReport struct {
	// EdgesAdded / EdgesRemoved count edges whose presence actually
	// changed. WeightsSet counts weight updates applied (including ones
	// writing the value already present).
	EdgesAdded   int
	EdgesRemoved int
	WeightsSet   int
	// Noops counts add-existing-edge and remove-missing-edge operations.
	// They are tolerated, not errors: concurrent mutators and replayed
	// journals legitimately race to the same edge, and the outcome is
	// deterministic either way.
	Noops int
	// Touched flags every node incident to a changed edge or an updated
	// weight — the invalidation frontier for component-granular caches.
	Touched []bool
}

// ApplyEdit returns a new graph with the edit applied. Validation is
// strict where a mistake would corrupt state (out-of-range endpoints,
// self-loops, negative weights) and tolerant where concurrent mutators
// legitimately collide (adding an edge that exists, removing one that
// does not — both count as no-ops in the report). The receiver is never
// modified.
func (g *Graph) ApplyEdit(e Edit) (*Graph, EditReport, error) {
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

	// Removal set, normalised to u < v. Within one edit the last op on an
	// edge wins add-vs-remove ties deterministically: removals are applied
	// to the old edge set first, then additions.
	removed := make(map[[2]int32]bool, len(e.RemoveEdges))
	for _, ed := range e.RemoveEdges {
		u, v := ed[0], ed[1]
		if u > v {
			u, v = v, u
		}
		removed[[2]int32{u, v}] = false // value flips true when it removes a real edge
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
			rep.Noops++ // removing an edge that was not there
		}
	}
	for _, ed := range e.AddEdges {
		u, v := ed[0], ed[1]
		if u > v {
			u, v = v, u
		}
		key := [2]int32{u, v}
		if present[key] {
			rep.Noops++ // adding an edge that already exists
			continue
		}
		present[key] = true
		b.AddEdge(int(u), int(v))
		rep.EdgesAdded++
		rep.Touched[u] = true
		rep.Touched[v] = true
	}
	ng, err := b.Build()
	if err != nil {
		return nil, EditReport{}, fmt.Errorf("graph: edit rebuild: %w", err)
	}
	return ng, rep, nil
}
