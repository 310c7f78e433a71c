package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the mutation seam of the otherwise-immutable Graph type.
// Graphs stay immutable: an Edit never modifies its receiver, it derives a
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
//
// The edit costs the edit, not the graph: only the touched nodes'
// neighbour lists are merged, the rest of the CSR is copied block-wise,
// and every slice the edit leaves unchanged is shared with the receiver —
// identifiers always, the topology on weight-only edits and the weights
// on edge-only edits. Graphs are immutable, so sharing is safe.
func (g *Graph) ApplyEdit(e Edit) (*Graph, EditReport, error) {
	n := g.N()
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

	rep := EditReport{Touched: make([]bool, n)}
	touch := func(key [2]int32) {
		rep.Touched[key[0]] = true
		rep.Touched[key[1]] = true
	}
	// Within one edit the last op on an edge wins add-vs-remove ties
	// deterministically: removals apply to the old edge set first, then
	// additions in order. removed maps each distinct removal to whether it
	// removed a real edge.
	removed := make(map[[2]int32]bool, len(e.RemoveEdges))
	for _, ed := range e.RemoveEdges {
		key := edgeKey(ed)
		if _, dup := removed[key]; dup {
			continue
		}
		hit := g.HasEdge(int(key[0]), int(key[1]))
		removed[key] = hit
		if hit {
			rep.EdgesRemoved++
			touch(key)
		} else {
			rep.Noops++ // removing an edge that was not there
		}
	}
	added := make(map[[2]int32]bool, len(e.AddEdges))
	for _, ed := range e.AddEdges {
		key := edgeKey(ed)
		if added[key] || (!removed[key] && g.HasEdge(int(key[0]), int(key[1]))) {
			rep.Noops++ // adding an edge that already exists
			continue
		}
		added[key] = true
		rep.EdgesAdded++
		touch(key)
	}

	// The net change is what the CSR sees: an edge removed and re-added in
	// one edit is reported twice but leaves the topology as it was.
	var arcs []arc
	for key, hit := range removed {
		if hit && !added[key] {
			arcs = append(arcs, arc{key[0], key[1], false}, arc{key[1], key[0], false})
		}
	}
	for key := range added {
		if !removed[key] {
			arcs = append(arcs, arc{key[0], key[1], true}, arc{key[1], key[0], true})
		}
	}
	ng := &Graph{off: g.off, adj: g.adj, weights: g.weights, ids: g.ids, maxDeg: g.maxDeg, rev: g.rev}
	if len(arcs) > 0 {
		ng.off, ng.adj = g.splice(arcs)
		ng.rev = new(reverseArcs)
		ng.maxDeg = 0
		ng.setMaxDegree()
	}
	if len(e.Weights) > 0 {
		ng.weights = slices.Clone(g.weights)
		for _, wu := range e.Weights {
			ng.weights[wu.V] = wu.W
			rep.WeightsSet++
			rep.Touched[wu.V] = true
		}
	}
	// Build's weight rule covers the whole result: a derived receiver may
	// carry negative weights the edit does not overwrite.
	if err := checkWeights(ng.weights); err != nil {
		return nil, EditReport{}, fmt.Errorf("graph: edit rebuild: %w", err)
	}
	return ng, rep, nil
}

// edgeKey normalises an undirected edge to u < v.
func edgeKey(ed [2]int32) [2]int32 {
	if ed[0] > ed[1] {
		return [2]int32{ed[1], ed[0]}
	}
	return ed
}

// arc is one directed half of a net edge change: to joins or leaves
// from's neighbour list.
type arc struct {
	from, to int32
	add      bool
}

// splice returns the CSR of g with the arcs applied. Each arc's presence
// must flip: an added arc is absent from g and a removed one present.
// Untouched nodes' neighbour lists are copied block-wise between the
// touched ones; each touched node's list is merged with its arcs, which
// keeps it sorted.
func (g *Graph) splice(arcs []arc) (off, adj []int32) {
	slices.SortFunc(arcs, func(a, b arc) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	size := len(g.adj)
	for _, a := range arcs {
		if a.add {
			size++
		} else {
			size--
		}
	}
	n := g.N()
	off = make([]int32, n+1)
	adj = make([]int32, 0, size)
	// copyRun copies the untouched lists of nodes [from, to) unchanged.
	copyRun := func(from, to int) {
		shift := int32(len(adj)) - g.off[from]
		adj = append(adj, g.adj[g.off[from]:g.off[to]]...)
		for v := from; v < to; v++ {
			off[v+1] = g.off[v+1] + shift
		}
	}
	next := 0
	for i := 0; i < len(arcs); {
		v := int(arcs[i].from)
		j := i
		for j < len(arcs) && int(arcs[j].from) == v {
			j++
		}
		copyRun(next, v)
		k := i
		for _, u := range g.Neighbors(v) {
			for k < j && arcs[k].to < u {
				adj = append(adj, arcs[k].to) // only additions sort before a present neighbour
				k++
			}
			if k < j && arcs[k].to == u {
				k++ // the removal of u
				continue
			}
			adj = append(adj, u)
		}
		for ; k < j; k++ {
			adj = append(adj, arcs[k].to)
		}
		off[v+1] = int32(len(adj))
		next, i = v+1, j
	}
	copyRun(next, n)
	return off, adj
}
