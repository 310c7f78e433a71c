package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Component is one connected component of a graph, induced in ascending
// node order: G is the component with its nodes renumbered 0..k-1,
// ToParent maps them back to the parent's indices, and Hash is
// G.HashString(). G equals what Induce returns for the component's node
// set, so a component's hash is a pure function of its content.
type Component struct {
	G        *Graph
	ToParent []int32
	Hash     string
}

// SplitComponents returns g's connected components in ascending order of
// their smallest node, each induced and hashed.
func (g *Graph) SplitComponents() []Component {
	n := g.N()
	comp, count := g.Components()
	// Bucket the nodes by component; each bucket comes out ascending.
	start := make([]int32, count+1)
	for _, c := range comp {
		start[c+1]++
	}
	for c := 0; c < count; c++ {
		start[c+1] += start[c]
	}
	fill := slices.Clone(start[:count])
	nodes := make([]int32, n)
	for v, c := range comp {
		nodes[fill[c]] = int32(v)
		fill[c]++
	}
	pos := make([]int32, n)
	parts := make([]Component, count)
	for c := range parts {
		parts[c] = g.induceComponent(nodes[start[c]:start[c+1]:start[c+1]], pos)
	}
	return parts
}

// CarryComponents returns g's connected components, as SplitComponents
// would, reusing the components of the graph g was derived from. prev must
// be that graph's components (from SplitComponents or CarryComponents) and
// touched the Touched frontier of the EditReport that derived g.
//
// A previous component with no touched node keeps its node set, edges and
// weights — every changed edge and weight touches its endpoints — so it is
// carried over as is, with the same G, ToParent and Hash. Only the nodes
// of the other components are regrouped: a breadth-first search from them
// never leaves them, because an edge into a carried component would have
// touched it. Each regrouped component is induced and hashed from its
// node list.
func (g *Graph) CarryComponents(prev []Component, touched []bool) []Component {
	n := g.N()
	if len(touched) != n {
		panic(fmt.Sprintf("graph: CarryComponents got %d touched flags for %d nodes", len(touched), n))
	}
	// pos marks the regrouped nodes -1 until a search reaches them, and
	// then holds their index inside their new component.
	pos := make([]int32, n)
	var out []Component
	var dirty []int32
	for _, p := range prev {
		if !slices.ContainsFunc(p.ToParent, func(v int32) bool { return touched[v] }) {
			out = append(out, p)
			continue
		}
		for _, v := range p.ToParent {
			pos[v] = -1
			dirty = append(dirty, v)
		}
	}
	for _, s := range dirty {
		if pos[s] != -1 {
			continue
		}
		pos[s] = 0
		nodes := []int32{s}
		for i := 0; i < len(nodes); i++ {
			for _, u := range g.Neighbors(int(nodes[i])) {
				if pos[u] == -1 {
					pos[u] = 0
					nodes = append(nodes, u)
				}
			}
		}
		slices.Sort(nodes)
		out = append(out, g.induceComponent(nodes, pos))
	}
	slices.SortFunc(out, func(a, b Component) int { return cmp.Compare(a.ToParent[0], b.ToParent[0]) })
	return out
}

// induceComponent induces the component on nodes, an ascending node list
// closed under adjacency, and hashes it. pos is n-length scratch space that
// it overwrites at the component's nodes.
func (g *Graph) induceComponent(nodes []int32, pos []int32) Component {
	arcs := 0
	for i, v := range nodes {
		pos[v] = int32(i)
		arcs += g.Degree(int(v))
	}
	k := len(nodes)
	sub := &Graph{
		off:     make([]int32, k+1),
		weights: make([]int64, k),
		ids:     make([]uint64, k),
		rev:     new(reverseArcs),
	}
	if arcs > 0 {
		sub.adj = make([]int32, 0, arcs)
	}
	for i, v := range nodes {
		sub.weights[i] = g.weights[v]
		sub.ids[i] = g.ids[v]
		for _, u := range g.Neighbors(int(v)) {
			sub.adj = append(sub.adj, pos[u])
		}
		sub.off[i+1] = int32(len(sub.adj))
		if d := int(sub.off[i+1] - sub.off[i]); d > sub.maxDeg {
			sub.maxDeg = d
		}
	}
	return Component{G: sub, ToParent: nodes, Hash: sub.HashString()}
}
