package protocol_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/protocol"
)

// freshRunEnv names the graph a child process of
// TestRecycledStateMatchesFreshProcess runs every algorithm on, once each.
const freshRunEnv = "DISTMWIS_FRESH_RUN_GRAPH"

// recycleGraphs are two graphs of different sizes, so a recycled process
// array or run state carries a tail the next run does not use.
var recycleGraphs = map[string]*graph.Graph{
	"A": gen.GNP(150, 0.04, 5),
	"B": gen.GNP(72, 0.08, 7),
}

// recycleRunner is one registered algorithm as a function from a graph to
// a fingerprint of its rounds, messages, bits and outputs.
type recycleRunner struct {
	name string
	run  func(*graph.Graph) (string, error)
}

func recycleRunners(t *testing.T) []recycleRunner {
	var out []recycleRunner
	for _, p := range protocol.Protos() {
		out = append(out, recycleRunner{"proto/" + p.Name(), func(g *graph.Graph) (string, error) {
			res, outs, err := p.Run(g, congest.Config{Seed: 9})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("rounds=%d messages=%d bits=%d maxbits=%d outputs=%v",
				res.Rounds, res.Messages, res.Bits, res.MaxMessageBits, outs), nil
		}})
	}
	for _, s := range protocol.Solvers() {
		params, err := s.Normalize(protocol.Params{Eps: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, recycleRunner{"solver/" + s.Name(), func(g *graph.Graph) (string, error) {
			res, err := s.Run(g, params, protocol.Config{Seed: 11})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("metrics=%+v weight=%d set=%v extra=%v", res.Metrics, res.Weight, res.Set, res.Extra), nil
		}})
	}
	return out
}

// TestRecycledStateMatchesFreshProcess pins that no state survives from
// one run to the next through the recycled process arrays, inbox slots
// and run state. Every registered protocol and solver runs on graphs A, B
// and A again, interleaved with the next algorithm in the list on the
// other graph, and each run must equal the first run of that algorithm on
// that graph in a fresh process (a child of this test binary).
func TestRecycledStateMatchesFreshProcess(t *testing.T) {
	runners := recycleRunners(t)
	if name := os.Getenv(freshRunEnv); name != "" {
		g := recycleGraphs[name]
		for _, r := range runners {
			fp, err := r.run(g)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			fmt.Printf("fresh\t%s\t%s\n", r.name, fp)
		}
		return
	}
	if testing.Short() {
		t.Skip("spawns child test processes")
	}

	fresh := map[string]string{}
	for name := range recycleGraphs {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRecycledStateMatchesFreshProcess$")
		cmd.Env = append(os.Environ(), freshRunEnv+"="+name)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stdout
		if err := cmd.Run(); err != nil {
			t.Fatalf("fresh process on graph %s: %v\n%s", name, err, stdout.String())
		}
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if key, fp, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "fresh\t"), "\t"); ok {
				fresh[key+"@"+name] = fp
			}
		}
	}

	for i, r := range runners {
		other := runners[(i+1)%len(runners)]
		for step, name := range []string{"A", "B", "A"} {
			otherGraph := map[string]string{"A": "B", "B": "A"}[name]
			if _, err := other.run(recycleGraphs[otherGraph]); err != nil {
				t.Fatalf("%s on %s: %v", other.name, otherGraph, err)
			}
			fp, err := r.run(recycleGraphs[name])
			if err != nil {
				t.Fatalf("%s on %s: %v", r.name, name, err)
			}
			want, ok := fresh[r.name+"@"+name]
			if !ok {
				t.Fatalf("%s on %s: no fresh-process run", r.name, name)
			}
			if fp != want {
				t.Errorf("%s, run %d (graph %s) differs from its fresh-process run:\n got %.300s\nwant %.300s", r.name, step+1, name, fp, want)
			}
		}
	}
}
