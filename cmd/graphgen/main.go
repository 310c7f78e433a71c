// Command graphgen emits a generated workload graph as JSON for external
// inspection or plotting, or as an inline graph for maxisd. The document is
// the graph.WriteJSON format (node count, identifiers, weights and an edge
// list) with a "stats" object added, so it can be piped straight into
// PUT /v1/graph.
//
// Usage:
//
//	graphgen -graph coc -n 16 -k 4 | jq .stats
//	graphgen -graph cycle -n 64 | curl -X PUT --data-binary @- localhost:8080/v1/graph
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"distmwis/internal/graph/gen"
)

type statsDoc struct {
	N           int    `json:"n"`
	M           int    `json:"m"`
	MaxDegree   int    `json:"maxDegree"`
	MaxWeight   int64  `json:"maxWeight"`
	TotalWeight int64  `json:"totalWeight"`
	Degeneracy  int    `json:"degeneracy"`
	ArbLower    int    `json:"arboricityLowerBound"`
	Kind        string `json:"kind"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec gen.Spec
	fs.StringVar(&spec.Kind, "graph", "gnp", strings.Join(gen.Kinds(), "|"))
	fs.IntVar(&spec.N, "n", 100, "nodes (or per-dimension size)")
	fs.Float64Var(&spec.P, "p", 0.05, "gnp edge probability")
	fs.IntVar(&spec.K, "k", 2, "forest count for forests / legs for caterpillar / clique size for coc")
	fs.StringVar(&spec.Weights, "weights", "unit", strings.Join(gen.WeightFamilies(), "|"))
	fs.Int64Var(&spec.MaxW, "maxw", 1000, "max weight for -weights uniform|skewed")
	fs.Uint64Var(&spec.Seed, "seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g, err := spec.Build()
	if err != nil {
		fmt.Fprintf(stderr, "graphgen: %v\n", err)
		return 1
	}
	stats, err := json.Marshal(statsDoc{
		N: g.N(), M: g.M(), MaxDegree: g.MaxDegree(),
		MaxWeight: g.MaxWeight(), TotalWeight: g.TotalWeight(),
		Degeneracy: g.ArboricityUpperBound(), ArbLower: g.ArboricityLowerBound(),
		Kind: spec.Kind,
	})
	if err != nil {
		fmt.Fprintf(stderr, "graphgen: %v\n", err)
		return 1
	}
	// WriteJSON emits one object and a newline; reopen the object to add
	// the stats, which graph.ReadJSON ignores.
	var doc bytes.Buffer
	if err := g.WriteJSON(&doc); err != nil {
		fmt.Fprintf(stderr, "graphgen: %v\n", err)
		return 1
	}
	doc.Truncate(doc.Len() - len("}\n"))
	fmt.Fprintf(&doc, `,"stats":%s}`+"\n", stats)
	if _, err := stdout.Write(doc.Bytes()); err != nil {
		fmt.Fprintf(stderr, "graphgen: %v\n", err)
		return 1
	}
	return 0
}
