// Package dist provides the phase-composition machinery the paper's
// algorithms are built from.
//
// Algorithms 1 and 6 of the paper run a black-box protocol A repeatedly on
// derived graphs (residual positive-weight subgraphs, bounded-degree
// subgraphs) and account the total round complexity as the sum over phases.
// Package dist mirrors that structure: an Accumulator sums the
// congest.Counters of successive runs plus the constant-round bookkeeping
// steps (flag and weight exchanges between phases) that the distributed
// implementation would perform, so reported round counts are honest
// end-to-end figures.
package dist

import (
	"fmt"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
)

// Accumulator sums the counters of a pipeline's congest runs — rounds,
// traffic, fault interventions and transport work — with Counters.Add, and
// counts the runs and the truncated ones among them.
type Accumulator struct {
	congest.Counters
	// Phases counts congest runs absorbed.
	Phases int
	// Truncations counts phases cut off by a hard stop before all nodes
	// halted (under fault injection, blocked protocols are truncated).
	Truncations int
}

// Absorb adds one congest execution's counters.
func (a *Accumulator) Absorb(res *congest.Result) {
	a.Counters.Add(res.Counters)
	a.Phases++
	if res.Truncated {
		a.Truncations++
	}
}

// AddRounds accounts constant-round bookkeeping (e.g. a one-round exchange
// of active flags between phases) that is performed host-side by the
// orchestrator but would cost rounds in a real network.
func (a *Accumulator) AddRounds(r int) { a.Rounds += r }

// Add merges another accumulator (e.g. a nested algorithm's total).
func (a *Accumulator) Add(b Accumulator) {
	a.Counters.Add(b.Counters)
	a.Phases += b.Phases
	a.Truncations += b.Truncations
}

func (a Accumulator) String() string {
	return fmt.Sprintf("rounds=%d msgs=%d bits=%d phases=%d", a.Rounds, a.Messages, a.Bits, a.Phases)
}

// RunPhase executes one protocol on g, absorbs its metrics into acc, and
// returns every node's output flag.
func RunPhase(g *graph.Graph, run congest.Runner, acc *Accumulator, c congest.Config) ([]bool, error) {
	out := make([]bool, g.N())
	res, err := run(g, c, out)
	if err != nil {
		return nil, fmt.Errorf("dist: phase %d: %w", acc.Phases+1, err)
	}
	acc.Absorb(res)
	return out, nil
}

// RunOnInduced is one induced phase: it builds g's subgraph induced by
// keep in s (nil allocates), carrying weights (indexed by g's nodes; nil
// keeps g's), charges one bookkeeping round for the flag exchange that
// lets every node learn which of its neighbours take part, runs phase on
// the subgraph and lifts its set back to g's indices. An empty subgraph
// runs nothing and yields an all-false set. The subgraph is popped from s
// before the return, on the error path too.
func RunOnInduced(g *graph.Graph, keep []bool, weights []int64, s *congest.Scratch, acc *Accumulator, phase func(sub *graph.Graph) ([]bool, error)) ([]bool, error) {
	sub := s.Induce(g, keep, weights)
	defer s.Pop()
	acc.AddRounds(1) // neighbours exchange flags
	if sub.G.N() == 0 {
		return make([]bool, g.N()), nil
	}
	set, err := phase(sub.G)
	if err != nil {
		return nil, err
	}
	return sub.LiftSet(set), nil
}
