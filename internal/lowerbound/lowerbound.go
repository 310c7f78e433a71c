// Package lowerbound implements the Section 7 reduction machinery behind
// Theorem 4: any algorithm finding an independent set of size Ω(n/Δ) in
// unweighted graphs with success probability ≥ 1 − 1/log n needs Ω(log* n)
// rounds, even in LOCAL.
//
// A lower bound cannot be "run", but its mechanism can: Lemma 8 turns an
// approximate-MaxIS algorithm A into RandMIS, an MIS algorithm for the
// cycle, by running A on the cycle-of-cliques C₁ (each cycle node blown up
// into an n₁-clique, adjacent cliques joined by bicliques), mapping the
// found set back to the cycle, and filling the gaps between consecutive
// members sequentially. The experiment suite (E12) uses this package to
// verify the two properties the proof hinges on:
//
//   - global consistency: A(C₁) is an independent set, so the mapped set I
//     is independent on C;
//   - local presence: the clique blow-up amplifies A's local success
//     probability, so every O(T)-neighbourhood contains a member and gaps
//     stay short (Propositions 8–9) — whereas on the plain cycle a
//     truncated algorithm leaves much longer gaps.
package lowerbound

import (
	"fmt"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/mis"
)

// ApproxAlgorithm is the black box A of Lemma 8: it returns an independent
// set of the given graph together with the number of rounds it used.
type ApproxAlgorithm func(g *graph.Graph, seed uint64) (set []bool, rounds int, err error)

// RankingAlgorithm adapts the Section 5 Boppana ranking algorithm (with
// exponent c) as the Lemma 8 black box.
func RankingAlgorithm(c int) ApproxAlgorithm {
	return func(g *graph.Graph, seed uint64) ([]bool, int, error) {
		res, err := maxis.Ranking(g, c, maxis.Config{Seed: seed})
		if err != nil {
			return nil, 0, err
		}
		return res.Set, res.Metrics.Rounds, nil
	}
}

// TruncatedLuby runs Luby's MIS but hard-stops it after T rounds, returning
// the (independent, possibly far from maximal) set joined so far. This is
// the "algorithm cut off before completion" probe used to show long gaps on
// the plain cycle.
func TruncatedLuby(rounds int) ApproxAlgorithm {
	return func(g *graph.Graph, seed uint64) ([]bool, int, error) {
		set := make([]bool, g.N())
		res, err := mis.Luby{}.Run(g, congest.Config{Seed: seed, HardStop: rounds}, set)
		if err != nil {
			return nil, 0, err
		}
		return set, res.Rounds, nil
	}
}

// Result is the outcome of one RandMIS reduction run.
type Result struct {
	// MIS is the maximal independent set produced on the cycle C.
	MIS []bool
	// I is the independent set mapped from C₁ before gap filling.
	I []bool
	// I1Size is |A(C₁)|.
	I1Size int
	// SimRounds is the round count of A on C₁ (= rounds to simulate on C,
	// Proposition 10).
	SimRounds int
	// MaxGap is the longest run of consecutive non-members of I along C.
	MaxGap int
	// FillRounds is the sequential gap-filling cost: the size of the
	// largest connected component of C \ N⁺[I].
	FillRounds int
}

// RandMIS implements Algorithm 7 for the n₀-cycle with clique size n₁:
// run A on C₁ = CycleOfCliques(n₀, n₁), map the set back to C, and extend
// it to a maximal independent set by sequential greedy filling of each gap.
func RandMIS(n0, n1 int, alg ApproxAlgorithm, seed uint64) (*Result, error) {
	if n0 < 3 || n1 < 1 {
		return nil, fmt.Errorf("lowerbound: need n0 ≥ 3, n1 ≥ 1; got %d, %d", n0, n1)
	}
	c1 := gen.CycleOfCliques(n0, n1)
	i1, rounds, err := alg(c1, seed)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: A(C1): %w", err)
	}
	if !c1.IsIndependentSet(i1) {
		return nil, fmt.Errorf("lowerbound: A returned a dependent set on C1")
	}
	// Step (2): map to C. u_i joins I iff some v_ij ∈ I1.
	c := gen.Cycle(n0)
	setI := make([]bool, n0)
	i1Size := 0
	for v, in := range i1 {
		if in {
			i1Size++
			setI[gen.CliqueIndex(v, n1)] = true
		}
	}
	if !c.IsIndependentSet(setI) {
		// Cannot happen when I1 is independent: adjacent cliques are joined
		// by a complete biclique.
		return nil, fmt.Errorf("lowerbound: mapped set not independent on C (bug)")
	}
	// Step (3): J = N⁺[I]; fill each component (arc) of C \ J with a
	// sequential greedy MIS. FillRounds is the largest arc length, the
	// sequential cost of Proposition 10.
	inJ := make([]bool, n0)
	for v := 0; v < n0; v++ {
		if setI[v] {
			inJ[v] = true
			inJ[(v+1)%n0] = true
			inJ[(v-1+n0)%n0] = true
		}
	}
	out := make([]bool, n0)
	copy(out, setI)
	fillRounds := 0
	if i1Size == 0 {
		// Degenerate case: A found nothing; the whole cycle is one gap.
		// Greedy MIS from node 0.
		for v := 0; v < n0; v++ {
			if !out[(v-1+n0)%n0] && !out[(v+1)%n0] {
				out[v] = true
			}
		}
		fillRounds = n0
	} else {
		for s := 0; s < n0; s++ {
			if inJ[s] || !inJ[(s-1+n0)%n0] {
				continue // not the left end of an arc
			}
			length := 0
			for u := s; !inJ[u]; u = (u + 1) % n0 {
				if length%2 == 0 {
					out[u] = true
				}
				length++
			}
			if length > fillRounds {
				fillRounds = length
			}
		}
	}
	if !c.IsMaximalIS(out) {
		return nil, fmt.Errorf("lowerbound: RandMIS output is not an MIS of C (bug)")
	}
	return &Result{
		MIS:        out,
		I:          setI,
		I1Size:     i1Size,
		SimRounds:  rounds,
		MaxGap:     MaxGapOnCycle(setI),
		FillRounds: fillRounds,
	}, nil
}

// MaxGapOnCycle returns the longest run of consecutive false entries in the
// cyclic membership vector (n if the set is empty).
func MaxGapOnCycle(set []bool) int {
	n := len(set)
	first := -1
	for v, in := range set {
		if in {
			first = v
			break
		}
	}
	if first == -1 {
		return n
	}
	maxGap, gap := 0, 0
	for i := 1; i <= n; i++ {
		v := (first + i) % n
		if set[v] {
			if gap > maxGap {
				maxGap = gap
			}
			gap = 0
		} else {
			gap++
		}
	}
	return maxGap
}
