//go:build !race

package protocol_test

import (
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/graph/gen"
	"distmwis/internal/protocol"
	"distmwis/internal/trace"
)

// TestSimAllocatesNothing pins the cost of configuring one protocol phase:
// with faults and the reliable transport off, Config.Sim fills in a
// congest.Config value and allocates nothing, even with a tracer set, as
// in a served solve. A pipeline calls it once per phase.
func TestSimAllocatesNothing(t *testing.T) {
	g := gen.Weighted(gen.GNP(200, 0.02, 1), gen.UniformWeights(1000), 2)
	tracer := &trace.Totals{}
	cfg := protocol.Config{Workers: 1, Tracer: tracer}.Normalized(g).Phase("phase")
	var sc congest.Config
	allocs := testing.AllocsPerRun(100, func() { sc = cfg.Sim(7) })
	if allocs != 0 {
		t.Errorf("Config.Sim allocates %.0f objects per phase, want 0", allocs)
	}
	if sc.Seed != 7 || sc.Workers != 1 || sc.Tracer != tracer || sc.TraceLabel != "phase" ||
		sc.NUpper != g.N() || sc.MaxWeight != cfg.MaxWeight || sc.MaxID == 0 {
		t.Errorf("Config.Sim(7) = %+v does not carry the phase's configuration", sc)
	}
}
