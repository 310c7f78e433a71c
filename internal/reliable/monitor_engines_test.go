// External-package test: package reliable cannot import internal/maxis
// (maxis imports reliable), but the worker-count determinism property of
// the repair monitor is about whole solves, so it is exercised here through
// the public maxis entry point.
package reliable_test

import (
	"testing"

	"distmwis/internal/fault"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/mis"
	"distmwis/internal/protocol"
)

// The repair monitor must be independent of the worker count: a
// crash-faulted solve with Repair enabled returns the bit-identical set
// whether the simulator ran with one worker or with four, because Repair's
// edge scan is a pure function of (graph, candidate set).
func TestRepairDeterministicAcrossEngines(t *testing.T) {
	g := gen.Weighted(gen.GNP(120, 0.06, 5), gen.PolyWeights(2), 5)
	run := func(workers int) *protocol.Result {
		res, err := maxis.Solve("goodnodes", g, 0.5, 0, maxis.Config{
			Seed:    11,
			MIS:     mis.Luby{},
			Workers: workers,
			Repair:  true,
			Faults:  fault.Schedule{Seed: 99, CrashFrac: 0.15, CrashAt: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	pool := run(4)
	if seq.Weight != pool.Weight {
		t.Fatalf("weights differ across worker counts: %d vs %d", seq.Weight, pool.Weight)
	}
	for v := range seq.Set {
		if seq.Set[v] != pool.Set[v] {
			t.Fatalf("repaired sets differ across worker counts at node %d", v)
		}
	}
}
