package maxis

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
)

// localityGraph builds a random graph of many small components: isolated
// nodes, isolated edges and small connected pieces (a path with random
// chords). Identifiers are sparse and ascending, up to 2²⁰; weights are
// unit or up to n².
func localityGraph(seed uint64, n int, unit bool) *graph.Graph {
	r := rand.New(rand.NewPCG(seed, 0x10ca1))
	b := graph.NewBuilder(n)
	for v := 0; v < n; {
		size := 1 + r.IntN(2)
		if r.IntN(3) == 0 {
			size = 3 + r.IntN(8)
		}
		size = min(size, n-v)
		for i := 1; i < size; i++ {
			b.AddEdge(v+i-1, v+i)
		}
		for c := r.IntN(size + 1); c > 0; c-- {
			if x, y := v+r.IntN(size), v+r.IntN(size); x != y && x+1 != y && y+1 != x {
				b.AddEdge(x, y)
			}
		}
		v += size
	}
	ids := make([]uint64, 0, n)
	for seen := map[uint64]bool{}; len(ids) < n; {
		if id := 1 + r.Uint64N(1<<20); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for v, id := range ids {
		b.SetID(v, id)
		if !unit {
			b.SetWeight(v, 1+r.Int64N(int64(n)*int64(n)))
		}
	}
	return b.MustBuild()
}

// FuzzComponentLocality checks the locality contract SolveComponents rests
// on: for every registered solver, with no faults and under a loss, dup,
// corrupt and crash schedule, solving a graph with a random subset of its
// components already cached returns Solve's set bit for bit, and fails
// with congest.ErrBandwidth exactly when Solve does.
func FuzzComponentLocality(f *testing.F) {
	f.Add(uint64(1), uint8(40), false, uint64(0x5555))
	f.Add(uint64(2), uint8(28), true, uint64(0x0f0f))
	f.Add(uint64(3), uint8(60), false, uint64(0))
	f.Add(uint64(4), uint8(33), true, ^uint64(0)>>1)
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, unit bool, cached uint64) {
		g := localityGraph(seed, 24+int(size)%40, unit)
		parts := g.SplitComponents()
		pick := map[string]bool{}
		for i, part := range parts {
			pick[part.Hash] = cached>>(i%64)&1 == 1
		}
		schedules := []fault.Schedule{{}, {Seed: seed + 77, Loss: 0.1, Dup: 0.1, Corrupt: 0.1, CrashFrac: 0.1, CrashAt: 3}}
		for _, sched := range schedules {
			for _, s := range protocol.Solvers() {
				if !unit && s.Meta().UnitWeightsOnly {
					continue
				}
				checkLocality(t, s.Name(), g, parts, Config{Seed: seed | 1, Faults: sched}, pick)
			}
		}
	})
}

// A component whose own identifiers are narrow answers in a run with the
// graph's identifier bound: an isolated node with a 41-bit identifier
// sends nothing, so it caches fine, and the edge beside it must then fail
// as it does in the whole-graph run, not fit B with 2-bit identifiers.
func TestComponentRunsKeepParentIDBound(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(1, 2)
	b.SetID(0, 1<<40)
	b.SetID(1, 1)
	b.SetID(2, 2)
	g := b.MustBuild()
	parts := g.SplitComponents()
	pick := map[string]bool{parts[0].Hash: true}
	failed := 0
	for _, s := range protocol.Solvers() {
		if _, err := Solve(s.Name(), g, 0.5, 0, Config{}); err != nil {
			failed++
		}
		checkLocality(t, s.Name(), g, parts, Config{}, pick)
	}
	if failed == 0 {
		t.Fatal("no solver ran out of bandwidth; the test no longer exercises the identifier bound")
	}
}

// checkLocality compares SolveComponents with Solve on g when the
// components pick names are cached. The cached answers come from a first
// SolveComponents run over those components alone, as a cache earlier
// runs filled would hold them; the second run solves the rest.
func checkLocality(t *testing.T, name string, g *graph.Graph, parts []graph.Component, cfg Config, pick map[string]bool) {
	t.Helper()
	want, wantErr := Solve(name, g, 0.5, 0, cfg)
	if wantErr != nil && !errors.Is(wantErr, congest.ErrBandwidth) {
		t.Fatalf("%s: Solve: %v", name, wantErr)
	}
	cache := map[string][]int32{}
	_, _, err := SolveComponents(name, g, parts, 0.5, 0, cfg, ComponentCache{
		Lookup: func(h string) ([]int32, bool) { return nil, !pick[h] },
		Store:  func(h string, set []int32, _ int64) { cache[h] = set },
	})
	if err != nil {
		if wantErr == nil || !errors.Is(err, congest.ErrBandwidth) {
			t.Fatalf("%s (faults %t): the cached components alone: %v; Solve: %v", name, cfg.Faults.Enabled(), err, wantErr)
		}
		return // no run that holds them succeeds, so no cache can hold them
	}
	got, st, err := SolveComponents(name, g, parts, 0.5, 0, cfg, ComponentCache{
		Lookup: func(h string) ([]int32, bool) { m, ok := cache[h]; return m, ok },
	})
	if (err != nil) != (wantErr != nil) || err != nil && !errors.Is(err, congest.ErrBandwidth) {
		t.Fatalf("%s (faults %t): SolveComponents with %d of %d components cached: %v; Solve: %v",
			name, cfg.Faults.Enabled(), len(cache), len(parts), err, wantErr)
	}
	if err != nil {
		return
	}
	if st.Reused != len(cache) || st.Solved != len(parts)-len(cache) {
		t.Fatalf("%s: stats %+v with %d of %d components cached", name, st, len(cache), len(parts))
	}
	if !slices.Equal(got.Set, want.Set) || got.Weight != want.Weight {
		t.Fatalf("%s (faults %t): SolveComponents with %d of %d components cached gives weight %d, Solve %d; sets differ at %v",
			name, cfg.Faults.Enabled(), len(cache), len(parts), got.Weight, want.Weight, diffNodes(got.Set, want.Set))
	}
}

// diffNodes lists the nodes on which two membership vectors disagree.
func diffNodes(a, b []bool) []int {
	var out []int
	for v := range a {
		if a[v] != b[v] {
			out = append(out, v)
		}
	}
	return out
}
