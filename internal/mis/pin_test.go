package mis

import (
	"fmt"
	"hash/fnv"
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/reliable"
)

// pinned is what TestRandomizedBoxesPinned records of one run: a hash of
// the member set and the run's rounds, messages and bits.
type pinned struct {
	set            uint64
	rounds         int
	messages, bits int64
}

func (p pinned) String() string {
	return fmt.Sprintf("{%#x, %d, %d, %d}", p.set, p.rounds, p.messages, p.bits)
}

// setHash is the FNV-1a hash of a membership vector, one byte per node.
func setHash(set []bool) uint64 {
	h := fnv.New64a()
	b := make([]byte, len(set))
	for v, in := range set {
		if in {
			b[v] = 1
		}
	}
	h.Write(b)
	return h.Sum64()
}

// pinRuns are the three kinds of run the pin covers: fault-free, under
// message faults plus crash-recovery, and through the reliable transport
// with checkpoints under crash-recovery.
var pinRuns = []struct {
	name   string
	config func(g *graph.Graph) congest.Config
}{
	{"clean", func(*graph.Graph) congest.Config { return congest.Config{Seed: 5} }},
	{"faults", func(g *graph.Graph) congest.Config {
		sched := fault.Schedule{Seed: 8, Loss: 0.15, Dup: 0.1, Corrupt: 0.1, CrashFrac: 0.2, CrashAt: 4, CrashBack: 9}
		return congest.Config{Seed: 5, Hook: fault.NewInjector(sched), HardStop: sched.HardStop(g.N())}
	}},
	{"checkpoint", func(*graph.Graph) congest.Config {
		sched := fault.Schedule{Seed: 8, Loss: 0.1, CrashFrac: 0.2, CrashAt: 4, CrashBack: 9}
		return congest.Config{Seed: 5, Hook: fault.NewInjector(sched), Reliable: reliable.New(reliable.Options{CheckpointEvery: 3})}
	}},
}

// pinnedRuns holds, per box, graph and kind of run, what the run did when
// the values were taken. Any change to a box's messages, random draws or
// round structure shows here.
var pinnedRuns = map[string]pinned{
	"luby/gnp/clean":               {0xb478d0605b89a073, 15, 5526, 34998},
	"luby/gnp/faults":              {0x5dfa177d6a0cff4, 576, 62425, 415112},
	"luby/gnp/checkpoint":          {0xd3beae03aa80b2d9, 99, 14724, 628681},
	"luby/powerlaw/clean":          {0x8ea0f4250678d5c0, 15, 2112, 13376},
	"luby/powerlaw/faults":         {0x5229a52959f92f7d, 576, 33068, 220136},
	"luby/powerlaw/checkpoint":     {0xafcfdea718c94584, 91, 6517, 280432},
	"luby/torus/clean":             {0x73102309ec0c17b9, 12, 2484, 15732},
	"luby/torus/faults":            {0xc77c25f3a8d85b0c, 576, 29690, 197560},
	"luby/torus/checkpoint":        {0x4131b8d613c1e07, 90, 6113, 270241},
	"ghaffari/gnp/clean":           {0x25e51d6b9da1956, 21, 4278, 22816},
	"ghaffari/gnp/faults":          {0x857ee8f01c12199a, 576, 35160, 198800},
	"ghaffari/gnp/checkpoint":      {0xae908031cf9cfad7, 80, 11386, 490850},
	"ghaffari/powerlaw/clean":      {0xd7603b7962e5d669, 9, 1980, 10560},
	"ghaffari/powerlaw/faults":     {0x51c5a1f5dbb78954, 576, 21514, 121667},
	"ghaffari/powerlaw/checkpoint": {0xa7fe6673a824c9ed, 87, 5522, 240107},
	"ghaffari/torus/clean":         {0x3da8172bac4611fd, 15, 2220, 11840},
	"ghaffari/torus/faults":        {0x21a0791c40eb90b8, 576, 19523, 110249},
	"ghaffari/torus/checkpoint":    {0x5c8b69d59724b96f, 77, 5345, 239711},
	"rank/gnp/clean":               {0x1fa04cbbc7efbe82, 9, 3918, 33956},
	"rank/gnp/faults":              {0x2c41c7b560770372, 576, 45874, 411452},
	"rank/gnp/checkpoint":          {0xa95a8ca4b337daed, 83, 10148, 459509},
	"rank/powerlaw/clean":          {0xbf57a88d93eeb372, 9, 1992, 17264},
	"rank/powerlaw/faults":         {0x8b0168c29305362e, 576, 19046, 170938},
	"rank/powerlaw/checkpoint":     {0x3e58bac4a517ba4a, 66, 5221, 235535},
	"rank/torus/clean":             {0xccc0dd17b7b7f021, 9, 1884, 15700},
	"rank/torus/faults":            {0x4532bc02fd566d81, 576, 29180, 252120},
	"rank/torus/checkpoint":        {0x4d2c5affc66ad5fb, 66, 3923, 188771},
}

// TestRandomizedBoxesPinned runs Luby, Ghaffari and Rank on a gnp, a
// power-law and a torus graph, each fault-free, under faults and through
// the checkpointing reliable transport, and compares every run with the
// values pinned above.
func TestRandomizedBoxesPinned(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.GNP(200, 0.03, 3)},
		{"powerlaw", gen.PowerLaw(200, 2.5, 40, 4)},
		{"torus", gen.Torus(12, 12)},
	}
	for _, alg := range []Algorithm{Luby{}, Ghaffari{}, Rank{}} {
		for _, gc := range graphs {
			for _, run := range pinRuns {
				key := alg.Name() + "/" + gc.name + "/" + run.name
				set := make([]bool, gc.g.N())
				res, err := alg.Run(gc.g, run.config(gc.g), set)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if run.name == "checkpoint" && res.Recoveries == 0 {
					t.Errorf("%s: no node restored a checkpoint", key)
				}
				got := pinned{setHash(set), res.Rounds, res.Messages, res.Bits}
				if want, ok := pinnedRuns[key]; !ok || got != want {
					t.Errorf("%s: got %v, pinned %v\n\t%q: %v,", key, got, want, key, got)
				}
			}
		}
	}
}
