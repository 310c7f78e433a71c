package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCLIAlgorithms(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "theorem2-default",
			args: []string{"-graph", "gnp", "-n", "120", "-weights", "uniform", "-alg", "theorem2"},
			want: []string{"algorithm: theorem2", "independent set:", "rounds="},
		},
		{
			name: "theorem1-with-opt",
			args: []string{"-graph", "gnp", "-n", "40", "-p", "0.15", "-weights", "uniform", "-alg", "theorem1", "-opt"},
			want: []string{"OPT=", "ratio="},
		},
		{
			name: "theorem3-apollonian",
			args: []string{"-graph", "apollonian", "-n", "200", "-weights", "poly2", "-alg", "theorem3", "-alpha", "3"},
			want: []string{"8(1+ε)α-approximation"},
		},
		{
			name: "theorem5-cycle",
			args: []string{"-graph", "cycle", "-n", "256", "-alg", "theorem5"},
			want: []string{"|I| ≥ n/((1+ε)(Δ+1))"},
		},
		{
			name: "baseline",
			args: []string{"-graph", "gnp", "-n", "100", "-weights", "uniform", "-alg", "baseline"},
			want: []string{"Δ-approximation"},
		},
		{
			name: "ranking-ghaffari-box",
			args: []string{"-graph", "torus", "-n", "12", "-alg", "goodnodes", "-mis", "ghaffari"},
			want: []string{"algorithm: goodnodes (mis=ghaffari"},
		},
		{
			name: "local-model",
			args: []string{"-graph", "star", "-n", "50", "-alg", "oneround", "-local"},
			want: []string{"expectation only"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, out, errOut := runCLI(t, tt.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut)
			}
			for _, w := range tt.want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

func TestCLIErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "bad-flag", args: []string{"-nope"}},
		{name: "bad-graph", args: []string{"-graph", "moebius"}},
		{name: "bad-weights", args: []string{"-weights", "golden"}},
		{name: "bad-alg", args: []string{"-alg", "magic"}},
		{name: "bad-mis", args: []string{"-mis", "oracle"}},
		{name: "theorem5-weighted", args: []string{"-graph", "cycle", "-n", "30", "-weights", "uniform", "-alg", "theorem5"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, _, _ := runCLI(t, tt.args...)
			if code == 0 {
				t.Error("expected nonzero exit")
			}
		})
	}
}

// TestCLISpecErrorsExitOne: a generator spec that gen.Spec.Build rejects
// is a usage error of the run, not of the flag syntax.
func TestCLISpecErrorsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "moebius"},
		{"-weights", "golden"},
		{"-graph", "cycle", "-n", "0"},
	} {
		if code, _, errOut := runCLI(t, args...); code != 1 {
			t.Errorf("args %v: exit %d, want 1 (stderr %s)", args, code, errOut)
		}
	}
}

func TestCLIFlagValidation(t *testing.T) {
	// Combinations that used to be silently ignored must now exit non-zero
	// with a message naming the offending flag.
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{
			name:    "checkpoint-without-reliable",
			args:    []string{"-graph", "cycle", "-n", "32", "-checkpoint-every", "4"},
			wantErr: "-checkpoint-every only takes effect with -reliable",
		},
		{
			name:    "negative-checkpoint",
			args:    []string{"-graph", "cycle", "-n", "32", "-reliable", "-checkpoint-every", "-2"},
			wantErr: "-checkpoint-every must be non-negative",
		},
		{
			name:    "fault-back-without-crash",
			args:    []string{"-graph", "cycle", "-n", "32", "-fault-back", "6"},
			wantErr: "-fault-back only takes effect with -fault-crash",
		},
		{
			name:    "negative-fault-back",
			args:    []string{"-graph", "cycle", "-n", "32", "-fault-back", "-1"},
			wantErr: "-fault-back must be non-negative",
		},
		{
			name:    "nonpositive-eps",
			args:    []string{"-graph", "cycle", "-n", "32", "-alg", "theorem2", "-eps", "0"},
			wantErr: "-eps must be positive",
		},
		{
			name:    "negative-eps-theorem5",
			args:    []string{"-graph", "cycle", "-n", "32", "-alg", "theorem5", "-eps", "-0.5"},
			wantErr: "-eps must be positive",
		},
		{
			name:    "nonpositive-n",
			args:    []string{"-graph", "cycle", "-n", "0"},
			wantErr: "-n must be positive",
		},
		{
			name:    "negative-alpha",
			args:    []string{"-graph", "apollonian", "-n", "64", "-alg", "theorem3", "-alpha", "-3"},
			wantErr: "-alpha must be non-negative",
		},
		{
			name:    "nonpositive-maxw-uniform",
			args:    []string{"-graph", "cycle", "-n", "32", "-weights", "uniform", "-maxw", "0"},
			wantErr: "-maxw must be positive",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, _, errOut := runCLI(t, tt.args...)
			if code == 0 {
				t.Fatal("expected nonzero exit")
			}
			if !strings.Contains(errOut, tt.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tt.wantErr, errOut)
			}
		})
	}
	// The valid counterparts still run.
	valid := [][]string{
		{"-graph", "cycle", "-n", "32", "-alg", "goodnodes", "-reliable", "-checkpoint-every", "4"},
		{"-graph", "cycle", "-n", "32", "-alg", "goodnodes", "-fault-crash", "0.1", "-fault-back", "6"},
	}
	for _, args := range valid {
		if code, _, errOut := runCLI(t, args...); code != 0 {
			t.Errorf("valid args %v exited %d: %s", args, code, errOut)
		}
	}
}
