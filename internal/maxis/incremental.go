package maxis

import (
	"fmt"

	"distmwis/internal/graph"
)

// ComponentStats reports how much of a component-wise solve was recomputed
// versus reused — the economics of incremental re-solve after a mutation.
type ComponentStats struct {
	// Components is the number of connected components in the graph.
	Components int
	// Solved counts components computed fresh this call.
	Solved int
	// Reused counts components answered from the caller's lookup.
	Reused int
}

// ComponentCache is the reuse seam of SolveByComponent. Lookup resolves a
// component content hash to a previously computed member list (indices in
// the component's own 0..k-1 numbering); Store records a fresh solve for
// future reuse. Either function may be nil. Implementations must treat the
// hash as authoritative: a hit must have been stored for a component with
// the identical canonical form under the identical solve configuration.
type ComponentCache struct {
	Lookup func(hash string) ([]int32, bool)
	Store  func(hash string, set []int32, weight int64)
}

// SolveByComponent solves g with the cache's help: every connected
// component is looked up by its content hash, the misses are solved
// together in one run, and each fresh component answer is stored.
//
// This is the incremental re-solve entry point for dynamic graphs: after a
// mutation, only components whose content actually changed have new hashes,
// so a content-addressed cache re-solves exactly the affected subgraphs.
// Three properties make the reuse sound:
//
//   - components share no edges, so the union of per-component independent
//     sets is independent — no cross-component conflicts can exist;
//   - every solver is local under what Resolve fixes on g (the algorithm,
//     α and the bounds n, W and max ID), so a component gets the same set
//     in every run that contains it, and the result is Solve's set on g
//     bit for bit, however much of it came from the cache; a send over
//     the bandwidth fails every such run, so SolveComponents fails exactly
//     when Solve does;
//   - identifiers are unique within a graph, so two distinct components
//     can never alias one content hash.
//
// A cache therefore keys a component's answer by its hash and the values
// Resolve fixes, as ComponentScope renders them; whole-graph and component
// answers share one key world.
//
// SolveByComponent splits g itself; callers that already hold g's
// components — a dynamic graph carries them across versions — pass them
// to SolveComponents instead.
func SolveByComponent(name string, g *graph.Graph, eps float64, alpha int, cfg Config, cache ComponentCache) (*Result, ComponentStats, error) {
	return SolveComponents(name, g, g.SplitComponents(), eps, alpha, cfg, cache)
}

// SolveComponents is SolveByComponent over given components: parts must be
// g's connected components, as g.SplitComponents or g.CarryComponents
// return them. The misses run as one Solve: on the component itself for a
// single miss, otherwise on the subgraph they induce, which shares g's CSR
// when every component misses.
func SolveComponents(name string, g *graph.Graph, parts []graph.Component, eps float64, alpha int, cfg Config, cache ComponentCache) (*Result, ComponentStats, error) {
	stats := ComponentStats{Components: len(parts)}
	name, alpha, cfg, err := Resolve(name, g, eps, alpha, cfg)
	if err != nil {
		return nil, stats, err
	}
	out := &Result{Set: make([]bool, g.N())}
	miss := make([]bool, g.N())
	var missed []graph.Component
	for _, part := range parts {
		members, ok := []int32(nil), false
		if cache.Lookup != nil {
			members, ok = cache.Lookup(part.Hash)
		}
		for _, i := range members {
			if int(i) < 0 || int(i) >= len(part.ToParent) {
				return nil, stats, fmt.Errorf("maxis: component cache for %s returned out-of-range member %d", part.Hash[:12], i)
			}
			out.Set[part.ToParent[i]] = true
		}
		if ok {
			stats.Reused++
			continue
		}
		missed = append(missed, part)
		for _, v := range part.ToParent {
			miss[v] = true
		}
	}
	if len(missed) > 0 {
		union := &graph.Subgraph{G: missed[0].G, ToParent: missed[0].ToParent}
		if len(missed) > 1 {
			union = g.Induce(miss)
		}
		res, err := Solve(name, union.G, eps, alpha, cfg)
		if err != nil {
			return nil, stats, err
		}
		stats.Solved = len(missed)
		out.Metrics, out.Extra = res.Metrics, res.Extra
		for i, in := range res.Set {
			out.Set[union.ToParent[i]] = in
		}
		for _, part := range missed {
			if cache.Store == nil {
				break
			}
			var members []int32
			var weight int64
			for i, v := range part.ToParent {
				if out.Set[v] {
					members = append(members, int32(i))
					weight += part.G.Weight(i)
				}
			}
			cache.Store(part.Hash, members, weight)
		}
	}
	out.Weight = g.SetWeight(out.Set)
	return out, stats, nil
}
