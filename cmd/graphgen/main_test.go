package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// TestGraphgenEmitsValidJSON checks the stats and that the document reads
// back through graph.ReadJSON — the inline format maxisd accepts — as the
// graph gen.Spec.Build builds for the same flags.
func TestGraphgenEmitsValidJSON(t *testing.T) {
	tests := []struct {
		name  string
		args  []string
		spec  gen.Spec
		wantN int
		wantM int
	}{
		{name: "cycle", args: []string{"-graph", "cycle", "-n", "12"},
			spec: gen.Spec{Kind: "cycle", N: 12}, wantN: 12, wantM: 12},
		{name: "coc", args: []string{"-graph", "coc", "-n", "6", "-k", "3"},
			spec: gen.Spec{Kind: "coc", N: 6, K: 3}, wantN: 18, wantM: 6*3 + 6*9},
		{name: "weighted", args: []string{"-graph", "star", "-n", "9", "-weights", "uniform", "-maxw", "7"},
			spec: gen.Spec{Kind: "star", N: 9, Weights: "uniform", MaxW: 7}, wantN: 9, wantM: 8},
		{name: "expspread", args: []string{"-graph", "gnp", "-n", "40", "-p", "0.1", "-weights", "expspread", "-seed", "3"},
			spec: gen.Spec{Kind: "gnp", N: 40, P: 0.1, Weights: "expspread", Seed: 3}, wantN: 40, wantM: -1},
		{name: "poly3", args: []string{"-graph", "tree", "-n", "30", "-weights", "poly3"},
			spec: gen.Spec{Kind: "tree", N: 30, Weights: "poly3"}, wantN: 30, wantM: 29},
		{name: "skewed", args: []string{"-graph", "apollonian", "-n", "25", "-weights", "skewed", "-maxw", "500", "-seed", "4"},
			spec: gen.Spec{Kind: "apollonian", N: 25, Weights: "skewed", MaxW: 500, Seed: 4}, wantN: 25, wantM: 3*25 - 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if code := run(tt.args, &out, &errBuf); code != 0 {
				t.Fatalf("exit %d: %s", code, errBuf.String())
			}
			var doc struct {
				Stats struct {
					N, M int
				} `json:"stats"`
				Edges [][2]int32 `json:"edges"`
				W     []int64    `json:"weights"`
			}
			if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
				t.Fatalf("invalid JSON: %v", err)
			}
			if doc.Stats.N != tt.wantN || (tt.wantM >= 0 && doc.Stats.M != tt.wantM) {
				t.Errorf("stats n=%d m=%d, want %d, %d", doc.Stats.N, doc.Stats.M, tt.wantN, tt.wantM)
			}
			if len(doc.Edges) != doc.Stats.M {
				t.Errorf("edge list has %d entries for m=%d", len(doc.Edges), doc.Stats.M)
			}
			got, err := graph.ReadJSON(&out)
			if err != nil {
				t.Fatalf("graph.ReadJSON rejects the output: %v", err)
			}
			want, err := tt.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if got.HashString() != want.HashString() {
				t.Errorf("output hash %s, gen.Spec.Build hash %s", got.HashString(), want.HashString())
			}
		})
	}
}

func TestGraphgenErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-graph", "bogus"}, 1},
		{[]string{"-weights", "bogus"}, 1},
		{[]string{"-n", "0"}, 1},
		{[]string{"-undefined-flag"}, 2},
	} {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code != tc.code {
			t.Errorf("args %v: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}
