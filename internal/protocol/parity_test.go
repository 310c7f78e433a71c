// Worker-count parity suite, generated from the protocol registry: every
// registered algorithm runs with one worker and with several, and must
// produce a bit-identical Result. The table is built from
// protocol.Solvers()/protocol.Protos() at run time, so registering a new
// algorithm automatically extends the suite — no hand-listed
// algorithm × worker-count matrix to keep in sync.
package protocol_test

import (
	"reflect"
	"slices"
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/graph/gen"
	"distmwis/internal/maxis"
	"distmwis/internal/protocol"

	// Registry side effects: these imports populate the solver, MIS and
	// coloring tables the suite iterates over.
	_ "distmwis/internal/coloring"
	_ "distmwis/internal/mis"
)

// parallelWorkers are the worker counts checked against the one-worker
// run. Both test graphs have at least 64 nodes, so these counts run on the
// parallel path wherever a phase keeps that many nodes.
var parallelWorkers = []int{2, 8}

// TestSolverEngineParity runs every registered MaxIS solver end to end on
// each worker count. The unit-weight graph keeps theorem5 in the table (it
// rejects weighted inputs by contract); eps 0.5 satisfies every boosted
// pipeline's Normalize.
func TestSolverEngineParity(t *testing.T) {
	g := gen.GNP(72, 0.08, 7)
	for _, solver := range protocol.Solvers() {
		solver := solver
		t.Run(solver.Name(), func(t *testing.T) {
			t.Parallel()
			params, err := solver.Normalize(protocol.Params{Eps: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) *protocol.Result {
				res, err := solver.Run(g, params, protocol.Config{Seed: 11, Workers: workers})
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				return res
			}
			seq := run(1)
			for _, workers := range parallelWorkers {
				got := run(workers)
				if !reflect.DeepEqual(seq, got) {
					t.Errorf("%d workers: Result diverges from 1 worker:\nseq: %+v\ngot: %+v", workers, seq, got)
				}
			}
		})
	}
}

// TestProtoEngineParity runs every registered single-protocol algorithm
// (MIS black boxes and colouring protocols) under congest.Run on each
// worker count, comparing the full simulator Result.
func TestProtoEngineParity(t *testing.T) {
	g := gen.GNP(150, 0.04, 5)
	protos := protocol.Protos()
	if len(protos) == 0 {
		t.Fatal("no single-protocol algorithms registered")
	}
	for _, p := range protos {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (*congest.Result, []int) {
				res, outs, err := p.Run(g, congest.Config{Seed: 9, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return res, outs
			}
			seq, seqOuts := run(1)
			for _, workers := range parallelWorkers {
				got, outs := run(workers)
				if !reflect.DeepEqual(seqOuts, outs) {
					t.Errorf("%d workers: outputs diverge from 1 worker", workers)
				}
				if seq.Rounds != got.Rounds || seq.Messages != got.Messages ||
					seq.Bits != got.Bits || seq.MaxMessageBits != got.MaxMessageBits {
					t.Errorf("%d workers: metrics diverge: seq %+v, got %+v", workers, seq, got)
				}
			}
		})
	}
}

// TestRegistryCoverage pins the vocabulary each consumer derives from the
// registry, so a dropped registration fails loudly here rather than as a
// silent shrink of the CLI/server surface. Containment rather than exact
// equality: other tests in this binary may register fixtures of their own.
func TestRegistryCoverage(t *testing.T) {
	requireAll := func(kind protocol.Kind, want []string) {
		t.Helper()
		got := protocol.Names(kind)
		for _, name := range want {
			if !slices.Contains(got, name) {
				t.Errorf("%v names = %v, missing %q", kind, got, name)
			}
		}
	}
	requireAll(protocol.KindSolver, []string{
		"baseline", "goodnodes", "oneround", "ranking", "sparsified",
		"theorem1", "theorem2", "theorem3", "theorem5",
	})
	requireAll(protocol.KindMIS, []string{"ghaffari", "greedy-id", "luby", "rank"})
	requireAll(protocol.KindColoring, []string{"randomgreedy"})
	if got, want := maxis.AlgorithmNames(), protocol.Names(protocol.KindSolver); !reflect.DeepEqual(got, want) {
		t.Errorf("maxis.AlgorithmNames() = %v diverges from registry %v", got, want)
	}
	if name := protocol.DefaultMIS().Name(); name != "luby" {
		t.Errorf("default MIS = %q, want luby", name)
	}
}
