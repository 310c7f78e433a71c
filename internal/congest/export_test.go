package congest

import "distmwis/internal/graph"

// UseHeapSlots makes every run started until restore is called deliver
// through heap slots, the LOCAL model's pointer slots, whatever its
// bandwidth, so tests can check that both slot kinds deliver the same
// executions. Tests that call it must not run in parallel with others.
func UseHeapSlots() (restore func()) {
	forceHeapSlots = true
	return func() { forceHeapSlots = false }
}

// OutputResult is a run's Result with every node's output.
type OutputResult struct {
	*Result
	Outputs []any
}

// RunOutputs is Run for the test processes, which report their output
// through an Output method; it collects every node's output.
func RunOutputs[T any, P interface {
	*T
	Process
	Output() any
}](g *graph.Graph, set func(P), c Config) (*OutputResult, error) {
	outs := make([]any, g.N())
	res, err := Run(g, set, c, func(v int, p P) { outs[v] = p.Output() })
	if err != nil {
		return nil, err
	}
	return &OutputResult{Result: res, Outputs: outs}, nil
}
