package maxis

import (
	"fmt"

	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
)

// planarDegreeCap is the low-degree threshold for PlanarConstantRound.
// Planar graphs have average degree < 6, so more than half of the nodes
// have degree ≤ 11.
const planarDegreeCap = 11

// PlanarConstantRound is the O(1)-round O(1)-approximation for unweighted
// planar (more generally, average-degree-bounded) graphs from the paper's
// Related Work line [23, 32] (Czygrinow–Hanckowiak–Wawrzyniak; Lenzen–
// Wattenhofer), realized through this repository's machinery:
//
//  1. one round restricts attention to nodes of degree ≤ 11 — in a planar
//     graph that is more than n/2 nodes (average degree < 6). A node's own
//     degree is local knowledge; the round tells neighbours who takes part;
//  2. the Boppana ranking algorithm runs on that bounded-degree subgraph;
//     by the Theorem 11 martingale analysis it returns an independent set
//     of size ≥ (n/2)/(8·(11+1)) = n/192 with high probability.
//
// Since OPT ≤ n, the result is a 192-approximation (constant) in O(1)
// rounds — impossible for general graphs by Theorem 4, which is exactly
// the contrast the experiment suite draws. Requires a unit-weight graph.
func PlanarConstantRound(g *graph.Graph, cfg Config) (*Result, error) {
	if !g.IsUnitWeight() {
		return nil, fmt.Errorf("maxis: PlanarConstantRound requires an unweighted graph")
	}
	cfg = cfg.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	low := make([]bool, g.N())
	for v := range low {
		low[v] = g.Degree(v) <= planarDegreeCap
	}
	set, err := dist.RunOnInduced(g, low, nil, cfg.Scratch(), &acc, func(sub *graph.Graph) ([]bool, error) {
		return rankingRun(sub, 2, cfg, seeds, &acc)
	})
	if err != nil {
		return nil, err
	}
	var extra map[string]float64
	if lowN := graph.SetSize(low); lowN > 0 {
		extra = map[string]float64{
			"low_degree_nodes": float64(lowN),
			"size_bound":       float64(lowN) / (8 * float64(planarDegreeCap+1)),
		}
	}
	return finish(g, set, cfg, acc, "planar-constant", extra)
}
