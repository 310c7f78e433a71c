package fault_test

import (
	"math"
	"reflect"
	"testing"

	"distmwis/internal/congest"
	. "distmwis/internal/fault"
	"distmwis/internal/graph/gen"
	"distmwis/internal/mis"
)

// FuzzEngineFaultDeterminism runs an MIS box under an arbitrary
// message-fault schedule: box picks Luby, Ghaffari, Rank or greedy-id, and
// (seed, loss, dup, corrupt) the schedule. Every run must keep the box's
// safety invariant — the output is an independent set, whatever the
// adversary dropped, duplicated or garbled — and replay exactly: a second
// run of the same schedule must produce identical outputs, identical
// round/message/bit totals and identical injector statistics. A run with a
// delivery hook steps on one worker whatever Config.Workers says, so the
// second run's four workers must change nothing either. The injector is
// the only randomness besides the protocol seed, so any divergence means
// an ordering dependence leaked into the fault layer or the simulator.
func FuzzEngineFaultDeterminism(f *testing.F) {
	f.Add(uint8(0), uint64(1), 0.2, 0.0, 0.1)
	f.Add(uint8(0), uint64(2), 0.5, 0.5, 0.5)
	f.Add(uint8(0), uint64(3), 0.0, 0.0, 0.0)
	f.Add(uint8(0), uint64(4), 0.9, 0.3, 0.2)
	f.Add(uint8(1), uint64(5), 0.3, 0.2, 0.2)
	f.Add(uint8(2), uint64(6), 0.3, 0.2, 0.2)
	f.Add(uint8(3), uint64(7), 0.3, 0.2, 0.2)
	boxes := []mis.Algorithm{mis.Luby{}, mis.Ghaffari{}, mis.Rank{}, mis.GreedyByID{}}
	g := gen.Weighted(gen.GNP(64, 0.1, 7), gen.PolyWeights(1), 8)
	f.Fuzz(func(t *testing.T, box uint8, seed uint64, loss, dup, corrupt float64) {
		for _, p := range []float64{loss, dup, corrupt} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Skip("probability outside [0,1]")
			}
		}
		sched := Schedule{Seed: seed, Loss: loss, Dup: dup, Corrupt: corrupt}
		if err := sched.Validate(); err != nil {
			t.Skip(err)
		}
		alg := boxes[int(box)%len(boxes)]
		type outcome struct {
			res   *misOutput
			stats Stats
		}
		run := func(workers int) outcome {
			inj := NewInjector(sched)
			res, err := runMIS(alg, g, congest.Config{Seed: 21, Workers: workers, Hook: inj, HardStop: 400})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", alg.Name(), workers, err)
			}
			if rep := CheckIndependence(g, res.Outputs); !rep.Independent {
				t.Fatalf("%s: %v", alg.Name(), rep.Err())
			}
			return outcome{res, inj.Stats()}
		}
		a, b := run(1), run(4)
		if !reflect.DeepEqual(a.res.Outputs, b.res.Outputs) {
			t.Errorf("%s: replayed outputs diverge", alg.Name())
		}
		if a.res.Counters != b.res.Counters || a.res.Truncated != b.res.Truncated {
			t.Errorf("%s: replayed totals diverge: %+v vs %+v", alg.Name(), a.res.Result, b.res.Result)
		}
		if a.stats != b.stats {
			t.Errorf("%s: replayed fault stats diverge: %+v vs %+v", alg.Name(), a.stats, b.stats)
		}
	})
}
