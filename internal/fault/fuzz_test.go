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

// FuzzEngineFaultDeterminism checks the worker-count identity contract
// under arbitrary message-fault schedules: for any (seed, loss, dup,
// corrupt) one worker and four workers must produce byte-identical outputs,
// identical round/message/bit totals, and identical injector statistics.
// The injector is the only randomness besides the protocol seed, so any
// divergence means a scheduling-order dependence leaked into the fault
// layer or the simulator. The graph has 64 nodes, the smallest the
// simulator fans out over workers.
func FuzzEngineFaultDeterminism(f *testing.F) {
	f.Add(uint64(1), 0.2, 0.0, 0.1)
	f.Add(uint64(2), 0.5, 0.5, 0.5)
	f.Add(uint64(3), 0.0, 0.0, 0.0)
	f.Add(uint64(4), 0.9, 0.3, 0.2)
	g := gen.Weighted(gen.GNP(64, 0.1, 7), gen.PolyWeights(1), 8)
	f.Fuzz(func(t *testing.T, seed uint64, loss, dup, corrupt float64) {
		for _, p := range []float64{loss, dup, corrupt} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Skip("probability outside [0,1]")
			}
		}
		sched := Schedule{Seed: seed, Loss: loss, Dup: dup, Corrupt: corrupt}
		if err := sched.Validate(); err != nil {
			t.Skip(err)
		}
		type outcome struct {
			res   *misOutput
			stats Stats
		}
		run := func(workers int) outcome {
			inj := NewInjector(sched)
			res, err := runMIS(mis.Luby{}, g, congest.Config{Seed: 21, Workers: workers, Hook: inj, HardStop: 400})
			if err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			return outcome{res, inj.Stats()}
		}
		seq, o := run(1), run(4)
		if !reflect.DeepEqual(seq.res.Outputs, o.res.Outputs) {
			t.Error("4-worker outputs diverge from 1 worker")
		}
		if seq.res.Rounds != o.res.Rounds || seq.res.Messages != o.res.Messages ||
			seq.res.Bits != o.res.Bits || seq.res.Truncated != o.res.Truncated {
			t.Errorf("4-worker totals diverge: %+v vs %+v", seq.res, o.res)
		}
		if seq.stats != o.stats {
			t.Errorf("4-worker fault stats diverge: %+v vs %+v", seq.stats, o.stats)
		}
	})
}
