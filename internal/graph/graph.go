// Package graph provides the node-weighted undirected graphs all algorithms
// in this repository operate on.
//
// Graphs are immutable after construction and stored in compressed
// sparse-row form: a single offsets slice plus a single adjacency slice, so
// neighbour scans are cache-friendly even at 10^6 edges. Node weights are
// int64 — the paper allows the maximum weight W to be poly(n), and integer
// weights keep CONGEST messages at an honest O(log n) bits (Section 3,
// "Assumptions"). Weights may be zero or negative only in *derived* graphs
// produced by local-ratio reductions (Section 4.3); NewBuilder rejects
// negative input weights.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Graph is an immutable undirected node-weighted graph. The zero value is an
// empty graph.
type Graph struct {
	off     []int32 // CSR offsets, len n+1
	adj     []int32 // concatenated sorted neighbour lists, len 2m
	weights []int64 // node weights, len n
	ids     []uint64
	maxDeg  int
}

// Builder accumulates edges for a Graph. Builders are single-use: Build may
// be called once.
type Builder struct {
	n       int
	weights []int64
	ids     []uint64
	edges   [][2]int32
	built   bool
}

// NewBuilder creates a builder for a graph on n nodes with unit weights and
// identifiers 1..n. Use SetWeight / SetID to override before Build.
func NewBuilder(n int) *Builder {
	b := &Builder{
		n:       n,
		weights: make([]int64, n),
		ids:     make([]uint64, n),
	}
	for i := range b.weights {
		b.weights[i] = 1
		b.ids[i] = uint64(i + 1)
	}
	return b
}

// AddEdge records the undirected edge {u, v}. Duplicate edges are
// de-duplicated at Build time; self-loops are rejected there.
func (b *Builder) AddEdge(u, v int) {
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// SetWeight assigns node v's weight. Negative weights are rejected at Build.
func (b *Builder) SetWeight(v int, w int64) { b.weights[v] = w }

// SetWeights assigns all node weights at once; len(w) must equal n.
func (b *Builder) SetWeights(w []int64) {
	if len(w) != b.n {
		panic(fmt.Sprintf("graph: SetWeights got %d weights for %d nodes", len(w), b.n))
	}
	copy(b.weights, w)
}

// SetID assigns node v's identifier. Identifiers must be unique and fit in
// O(log n) bits for CONGEST transmission; Build validates uniqueness.
func (b *Builder) SetID(v int, id uint64) { b.ids[v] = id }

// Build validates and freezes the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.built {
		return nil, errors.New("graph: Builder used twice")
	}
	b.built = true
	if err := checkWeights(b.weights); err != nil {
		return nil, err
	}
	if err := checkIDs(b.ids); err != nil {
		return nil, err
	}
	deg := make([]int32, b.n)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at node %d", u)
		}
		if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		}
		deg[u]++
		deg[v]++
	}
	off := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	adj := make([]int32, off[b.n])
	fill := make([]int32, b.n)
	copy(fill, off[:b.n])
	for _, e := range b.edges {
		u, v := e[0], e[1]
		adj[fill[u]] = v
		fill[u]++
		adj[fill[v]] = u
		fill[v]++
	}
	// Sort neighbour lists and drop duplicate parallel edges.
	g := &Graph{weights: b.weights, ids: b.ids}
	g.off = make([]int32, b.n+1)
	g.adj = adj[:0]
	for v := 0; v < b.n; v++ {
		nbrs := adj[off[v]:off[v+1]]
		slices.Sort(nbrs)
		prev := int32(-1)
		for _, u := range nbrs {
			if u != prev {
				g.adj = append(g.adj, u)
				prev = u
			}
		}
		g.off[v+1] = int32(len(g.adj))
	}
	g.setMaxDegree()
	return g, nil
}

// FromOrderedEdges builds the graph on n nodes whose edges are the pairs
// (u, v) = (edges[2i], edges[2i+1]), u < v, ordered by v and then by u.
// Filling each node's row as its edges arrive in that order leaves every
// row sorted — a node's lower neighbours arrive, ascending, before its
// upper ones — so the graph needs no sort. Nodes get unit weights and
// identifiers 1..n, as NewBuilder gives them.
func FromOrderedEdges(n int, edges []int32) (*Graph, error) {
	if len(edges)%2 != 0 || len(edges) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edge endpoints are not a list of at most %d pairs", len(edges), math.MaxInt32/2)
	}
	// off[v+1] counts v's degree, then becomes v's row start: the fill
	// advances off[v+1] to v's row end, where row v+1 starts.
	off := make([]int32, n+1)
	pu, pv := int32(-1), int32(-1)
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		if u < 0 || u >= v || int(v) >= n || v < pv || (v == pv && u <= pu) {
			return nil, fmt.Errorf("graph: edge {%d,%d} after {%d,%d} is out of range [0,%d) or out of order", u, v, pu, pv, n)
		}
		pu, pv = u, v
		off[u+1]++
		off[v+1]++
	}
	start := int32(0)
	for v := 1; v <= n; v++ {
		off[v], start = start, start+off[v]
	}
	adj := make([]int32, len(edges))
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		adj[off[u+1]] = v
		off[u+1]++
		adj[off[v+1]] = u
		off[v+1]++
	}
	g := &Graph{off: off, adj: adj, weights: make([]int64, n), ids: make([]uint64, n)}
	for v := range g.weights {
		g.weights[v] = 1
		g.ids[v] = uint64(v + 1)
	}
	g.setMaxDegree()
	return g, nil
}

// checkIDs is the identifier rule of Build: identifiers are unique.
// Strictly increasing identifiers — the untouched NewBuilder default 1..n,
// and the common generator convention — are certified by one linear scan;
// only unordered identifier assignments pay for the map, which at 10M+
// nodes would otherwise dominate Build.
func checkIDs(ids []uint64) error {
	increasing := true
	for v := 1; v < len(ids); v++ {
		if ids[v] <= ids[v-1] {
			increasing = false
			break
		}
	}
	if increasing {
		return nil
	}
	seen := make(map[uint64]int, len(ids))
	for v, id := range ids {
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("graph: nodes %d and %d share identifier %d", prev, v, id)
		}
		seen[id] = v
	}
	return nil
}

// setMaxDegree computes Δ from the CSR offsets.
func (g *Graph) setMaxDegree() {
	for v := 0; v+1 < len(g.off); v++ {
		if d := int(g.off[v+1] - g.off[v]); d > g.maxDeg {
			g.maxDeg = d
		}
	}
}

// checkWeights is the input-weight rule of Build: no negative weights.
func checkWeights(w []int64) error {
	for v, x := range w {
		if x < 0 {
			return fmt.Errorf("graph: node %d has negative weight %d", v, x)
		}
	}
	return nil
}

// CheckInputWeights applies Build's weight rule to an already-built graph
// and returns the error Build would have. Graphs decoded by FromCanonical
// skip that rule (derived graphs may carry negative weights), so a boundary
// that accepts canonical input graphs checks them here.
func (g *Graph) CheckInputWeights() error { return checkWeights(g.weights) }

// MustBuild is Build for statically-known-valid graphs (tests, generators).
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.weights) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns Δ, the maximum degree over all nodes (0 for empty).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Arcs returns the range [lo, hi) of v's arcs in CSR order: arc lo+p
// leads to v's p-th neighbour, so hi-lo is v's degree and the arcs of all
// nodes number 0..2m-1.
func (g *Graph) Arcs(v int) (lo, hi int) { return int(g.off[v]), int(g.off[v+1]) }

// FillReverseArcs fills rev, of length 2m, with g's reverse-arc table: for
// every arc a = lo+p from v to its p-th neighbour u, rev[a] is the index
// of the arc from u back to v. cur, of length n, is scratch. It is one
// O(n + m) pass: neighbour lists are sorted ascending, so scanning v in
// ascending order means each u sees its neighbours arrive in exactly port
// order, and a per-node cursor assigns the reverse arcs without a search.
func (g *Graph) FillReverseArcs(rev, cur []int32) {
	copy(cur, g.off)
	for a, u := range g.adj {
		rev[a] = cur[u]
		cur[u]++
	}
}

// Neighbors returns v's sorted neighbour list. The slice aliases internal
// storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// HasEdge reports whether {u,v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(v) })
	return i < len(nbrs) && nbrs[i] == int32(v)
}

// Weight returns node v's weight.
func (g *Graph) Weight(v int) int64 { return g.weights[v] }

// Weights returns a copy of the weight vector.
func (g *Graph) Weights() []int64 {
	out := make([]int64, len(g.weights))
	copy(out, g.weights)
	return out
}

// TotalWeight returns w(V), the sum of all node weights.
func (g *Graph) TotalWeight() int64 {
	var sum int64
	for _, w := range g.weights {
		sum += w
	}
	return sum
}

// MaxWeight returns W, the maximum node weight (0 for the empty graph).
func (g *Graph) MaxWeight() int64 {
	var maxW int64
	for _, w := range g.weights {
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}

// ID returns node v's identifier.
func (g *Graph) ID(v int) uint64 { return g.ids[v] }

// MaxID returns the largest identifier in the graph (0 for empty). Algorithms
// use this to size CONGEST identifier fields.
func (g *Graph) MaxID() uint64 {
	var m uint64
	for _, id := range g.ids {
		if id > m {
			m = id
		}
	}
	return m
}

// WithWeights returns a copy of g sharing topology but carrying the given
// weight vector. Unlike NewBuilder, negative and zero weights are allowed:
// local-ratio reductions (Section 4.3 of the paper) legitimately produce
// them on derived graphs.
func (g *Graph) WithWeights(w []int64) *Graph {
	return g.WithOwnedWeights(slices.Clone(w))
}

// WithOwnedWeights is WithWeights without the copy: the graph keeps w
// itself, so the caller hands it over and must not change it afterwards.
func (g *Graph) WithOwnedWeights(w []int64) *Graph {
	if len(w) != g.N() {
		panic(fmt.Sprintf("graph: WithWeights got %d weights for %d nodes", len(w), g.N()))
	}
	return &Graph{off: g.off, adj: g.adj, weights: w, ids: g.ids, maxDeg: g.maxDeg}
}

// IsUnitWeight reports whether every node has weight exactly one.
func (g *Graph) IsUnitWeight() bool {
	for _, w := range g.weights {
		if w != 1 {
			return false
		}
	}
	return true
}

// Subgraph is an induced subgraph together with the mapping back to the
// parent graph.
type Subgraph struct {
	// G is the induced subgraph, with nodes renumbered 0..k-1.
	G *Graph
	// ToParent maps a subgraph node index to its parent index.
	ToParent []int32
	// FromParent maps a parent node index to its subgraph index, or -1.
	FromParent []int32
}

// Induce returns the subgraph induced by the nodes with keep[v] == true.
// Weights and identifiers carry over. When keep selects every node the
// subgraph shares g's CSR, weights and identifiers, as WithWeights does;
// only the identity maps are allocated.
func (g *Graph) Induce(keep []bool) *Subgraph {
	return g.InduceInto(new(SubgraphBuffer), keep, nil)
}

// SubgraphBuffer is reusable memory for induced subgraphs: InduceInto
// builds a subgraph in the buffer's arrays, growing them only past their
// capacity. The subgraph stays valid until the next InduceInto or Reset on
// the buffer.
type SubgraphBuffer struct {
	sub Subgraph
	g   Graph
	// The arrays subgraphs are built in.
	off, adj, toParent, fromParent []int32
	weights                        []int64
	ids                            []uint64
}

// Reset drops the buffer's subgraph, and with it every reference to the
// graph it was induced from; the arrays stay for the next InduceInto.
func (b *SubgraphBuffer) Reset() { b.sub, b.g = Subgraph{}, Graph{} }

// InduceInto is Induce built in b. weights, indexed by g's nodes,
// replaces g's weights in the subgraph (nil keeps them); like WithWeights
// it admits zero and negative weights. When keep selects every node the
// subgraph shares g's CSR and identifiers.
func (g *Graph) InduceInto(b *SubgraphBuffer, keep []bool, weights []int64) *Subgraph {
	n := g.N()
	if len(keep) != n {
		panic(fmt.Sprintf("graph: Induce got %d flags for %d nodes", len(keep), n))
	}
	if weights != nil && len(weights) != n {
		panic(fmt.Sprintf("graph: Induce got %d weights for %d nodes", len(weights), n))
	}
	b.sub.G = &b.g
	if n > 0 && !slices.Contains(keep, false) {
		b.toParent, b.fromParent = fit(b.toParent, n), fit(b.fromParent, n)
		for v := range b.toParent {
			b.toParent[v] = int32(v)
			b.fromParent[v] = int32(v)
		}
		b.g = Graph{off: g.off, adj: g.adj, weights: g.weights, ids: g.ids, maxDeg: g.maxDeg}
		if weights != nil {
			b.weights = fit(b.weights, n)
			copy(b.weights, weights)
			b.g.weights = b.weights
		}
		b.sub.ToParent, b.sub.FromParent = b.toParent, b.fromParent
		return &b.sub
	}
	if weights == nil {
		weights = g.weights
	}
	// Count the kept nodes and arcs first, so every slice is sized once.
	fromParent := fit(b.fromParent, n)
	k, arcs := 0, 0
	for v, in := range keep {
		if !in {
			fromParent[v] = -1
			continue
		}
		fromParent[v] = int32(k)
		k++
		for _, u := range g.Neighbors(v) {
			if keep[u] {
				arcs++
			}
		}
	}
	b.fromParent = fromParent
	b.toParent, b.off, b.adj = fit(b.toParent, k), fit(b.off, k+1), fit(b.adj, arcs)
	b.weights, b.ids = fit(b.weights, k), fit(b.ids, k)
	sub := Graph{off: b.off, adj: b.adj, weights: b.weights, ids: b.ids}
	sub.off[0] = 0
	i, a := 0, int32(0)
	for v, in := range keep {
		if !in {
			continue
		}
		b.toParent[i] = int32(v)
		sub.weights[i] = weights[v]
		sub.ids[i] = g.ids[v]
		for _, u := range g.Neighbors(v) {
			if keep[u] {
				sub.adj[a] = fromParent[u]
				a++
			}
		}
		sub.off[i+1] = a
		sub.maxDeg = max(sub.maxDeg, int(sub.off[i+1]-sub.off[i]))
		i++
	}
	b.g = sub
	b.sub.ToParent, b.sub.FromParent = b.toParent, b.fromParent
	return &b.sub
}

// fit returns s with length n, reusing its backing array when the
// capacity allows; elements are not cleared. An empty result of a nil s
// stays nil.
func fit[S ~[]E, E any](s S, n int) S {
	if cap(s) >= n {
		return s[:n]
	}
	return make(S, n)
}

// LiftSet maps a node-membership vector on the subgraph back to the parent
// graph's index space.
func (s *Subgraph) LiftSet(sub []bool) []bool {
	out := make([]bool, len(s.FromParent))
	for i, in := range sub {
		if in {
			out[s.ToParent[i]] = true
		}
	}
	return out
}

// IsIndependentSet reports whether no two set members are adjacent.
func (g *Graph) IsIndependentSet(set []bool) bool {
	for v := 0; v < g.N(); v++ {
		if !set[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if set[u] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIS reports whether set is independent and every non-member has a
// member neighbour.
func (g *Graph) IsMaximalIS(set []bool) bool {
	if !g.IsIndependentSet(set) {
		return false
	}
	for v := 0; v < g.N(); v++ {
		if set[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if set[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// SetWeight returns the total weight of the members of set.
func (g *Graph) SetWeight(set []bool) int64 {
	var sum int64
	for v, in := range set {
		if in {
			sum += g.weights[v]
		}
	}
	return sum
}

// SetSize returns the number of members of set.
func SetSize(set []bool) int {
	n := 0
	for _, in := range set {
		if in {
			n++
		}
	}
	return n
}

// SameSet reports whether two node sets have identical membership.
func SameSet(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if a[v] != b[v] {
			return false
		}
	}
	return true
}

// Components returns the connected components as a component index per node
// and the number of components.
func (g *Graph) Components() (comp []int32, count int) {
	comp = make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	for s := 0; s < g.N(); s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = int32(count)
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(int(v)) {
				if comp[u] == -1 {
					comp[u] = int32(count)
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return comp, count
}

// BFSDistances returns hop distances from src (-1 if unreachable).
func (g *Graph) BFSDistances(src int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Validate performs internal consistency checks; it is used by property
// tests and returns nil on a well-formed graph.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.off) != n+1 || len(g.ids) != n {
		return errors.New("graph: inconsistent slice lengths")
	}
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		for i, u := range nbrs {
			if int(u) < 0 || int(u) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: node %d adjacency not strictly sorted", v)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", v, u)
			}
		}
	}
	return nil
}
