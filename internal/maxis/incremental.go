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

// SolveByComponent solves g component by component: each connected
// component is induced (deterministically, in ascending node order),
// content-hashed, and either answered from the cache or solved fresh with
// the named algorithm; the per-component sets are lifted back and unioned.
//
// This is the incremental re-solve entry point for dynamic graphs: after a
// mutation, only components whose content actually changed have new hashes,
// so a content-addressed cache re-solves exactly the affected subgraphs.
// Three properties make the reuse sound:
//
//   - components share no edges, so the union of per-component independent
//     sets is independent — no cross-component conflicts can exist;
//   - the induced numbering is a pure function of the graph, so solving a
//     component in isolation is deterministic and cache hits are
//     bit-identical to fresh solves of the same content;
//   - identifiers are unique within a graph, so two distinct components
//     can never alias one content hash.
//
// Note the decomposition is part of the answer's identity: per-component
// node indices differ from whole-graph indices, so a component-wise solve
// of a connected graph may legitimately differ from Solve on the same
// graph. Callers must therefore key caches for component-wise answers
// distinctly from whole-graph ones.
//
// SolveByComponent splits g itself; callers that already hold g's
// components — a dynamic graph carries them across versions — pass them
// to SolveComponents instead.
func SolveByComponent(name string, g *graph.Graph, eps float64, alpha int, cfg Config, cache ComponentCache) (*Result, ComponentStats, error) {
	return SolveComponents(name, g, g.SplitComponents(), eps, alpha, cfg, cache)
}

// SolveComponents is SolveByComponent over given components: parts must be
// g's connected components, as g.SplitComponents or g.CarryComponents
// return them.
func SolveComponents(name string, g *graph.Graph, parts []graph.Component, eps float64, alpha int, cfg Config, cache ComponentCache) (*Result, ComponentStats, error) {
	count := len(parts)
	stats := ComponentStats{Components: count}
	out := &Result{Set: make([]bool, g.N())}
	for c, part := range parts {
		if cache.Lookup != nil {
			if members, ok := cache.Lookup(part.Hash); ok {
				stats.Reused++
				for _, i := range members {
					if int(i) < 0 || int(i) >= len(part.ToParent) {
						return nil, stats, fmt.Errorf("maxis: component cache for %s returned out-of-range member %d", part.Hash[:12], i)
					}
					out.Set[part.ToParent[i]] = true
				}
				continue
			}
		}
		res, err := Solve(name, part.G, eps, alpha, cfg)
		if err != nil {
			return nil, stats, fmt.Errorf("maxis: component %d/%d: %w", c, count, err)
		}
		stats.Solved++
		out.Metrics.Add(res.Metrics)
		var members []int32
		for i, in := range res.Set {
			if in {
				out.Set[part.ToParent[i]] = true
				members = append(members, int32(i))
			}
		}
		if cache.Store != nil {
			cache.Store(part.Hash, members, res.Weight)
		}
	}
	out.Weight = g.SetWeight(out.Set)
	return out, stats, nil
}
