GO ?= go

.PHONY: all vet lint build build-cmds test race fuzz experiments recovery-sweep serve loadtest smoke chaos-soak mutate-soak cluster-soak bench-serve bench-patch bench-solve bench-smoke bench-json bench-diff bench-scale clean

all: vet build test

vet:
	$(GO) vet ./...

# Static analysis beyond go vet. staticcheck is not vendored and the
# target never installs anything: it runs the tool when present and
# prints the install hint otherwise (CI installs it in the lint job).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; skipping (install: go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short smoke runs of every fuzz target, FUZZTIME each; CI runs
# `make fuzz FUZZTIME=30s`. Raise FUZZTIME for real campaigns.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReaderRobust -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzWriteReadMirror -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzChecksumBurst -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzWriterRoundTrip -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzInjectorCorruptDetect -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run='^$$' -fuzz=FuzzEngineFaultDeterminism -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run='^$$' -fuzz=FuzzParamsNormalize -fuzztime=$(FUZZTIME) ./internal/maxis/
	$(GO) test -run='^$$' -fuzz=FuzzComponentLocality -fuzztime=$(FUZZTIME) ./internal/maxis/
	$(GO) test -run='^$$' -fuzz=FuzzChoose -fuzztime=$(FUZZTIME) ./internal/plan/
	$(GO) test -run='^$$' -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzFromCanonical -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzWeightOrder -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzApplyEdit -fuzztime=$(FUZZTIME) ./internal/graph/

build-cmds:
	$(GO) build -o bin/ ./cmd/...

# Run the MaxIS service daemon on :8080 (see cmd/maxisd for flags).
serve:
	$(GO) run ./cmd/maxisd -addr :8080 -workers 4

# Push a 10-second closed-loop load burst at a running daemon.
loadtest:
	$(GO) run ./cmd/loadgen -addr http://localhost:8080 -rps 1000 \
		-concurrency 16 -duration 10s -repeat 0.9

# End-to-end serving smoke: boot maxisd with a journal, probe health +
# metrics, 5s loadgen burst with zero failures, PUT + PATCH a graph, clean
# SIGTERM drain, then reboot on the journal and serve the patched graph.
# Used by CI.
smoke:
	./scripts/smoke.sh

# Deterministic chaos soak: pinned fault schedule, retrying client,
# crash/recovery via the write-ahead journal, goroutine-leak check.
# Used by the CI chaos-smoke job.
chaos-soak:
	$(GO) test -race -run TestChaosSoak -count=1 -v ./internal/soak/

# Deterministic mutation soak: storms of journaled PATCHes raced against
# readers under injected 500s/resets/panics, shadow-state hash verification,
# healed-answer quality climb to "full", crash/replay of the journal.
# Used by the CI chaos-smoke job.
mutate-soak:
	$(GO) test -race -run TestMutationSoak -count=1 -v ./internal/soak/

# Deterministic sharded-serving soak: three chaos-injected backends behind
# the cluster coordinator, one killed mid-run; asserts ≥99% availability,
# verified answers, and the prober settling on the survivors.
# Used by the CI chaos-smoke job.
cluster-soak:
	$(GO) test -race -run TestClusterSoak -count=1 -v ./internal/soak/

# Serving-layer benchmarks: cache hit vs cold solve, scheduler overhead.
bench-serve:
	$(GO) test -run='^$$' -bench=BenchmarkServe -benchtime=10x .

# PATCH-path benchmarks on the 16 × 150 mutable-graph shape: the CSR
# splice of one edit, the canonical-form splice, and one PATCH plus
# graph_ref solve through the HTTP handlers.
bench-patch:
	$(GO) test -run='^$$' -benchmem -count=3 \
		-bench='^(BenchmarkApplyEdit|BenchmarkSpliceCanonical)$$' ./internal/graph/
	$(GO) test -run='^$$' -benchmem -count=3 -bench='^BenchmarkPatchRefSolve$$' ./internal/server/

# The round loop per worker count: one cold Theorem 2 solve of the
# cold-solve shape (gnp n = 2000, poly2, eps 0.5) with one and two workers;
# one uncached Theorem 2 solve of graphs of 150 × 16 and 16 × 150
# components through SolveComponents and through Solve; then the same
# solve on gnp graphs of degree 8 with 20,000 and 200,000 nodes (about a
# minute).
bench-solve:
	$(GO) test -run='^$$' -benchmem -count=5 -bench='^BenchmarkTheorem2Cold$$' ./internal/maxis/
	$(GO) test -run='^$$' -benchmem -count=5 -bench='^BenchmarkSolveComponents$$' ./internal/maxis/
	$(GO) test -run='^$$' -benchmem -count=3 -benchtime=3x -bench='^BenchmarkTheorem2Scale$$' ./internal/maxis/

# Benchmark smoke: one second of every perfbench workload, built from
# this checkout. Fails unless every run's result line reports
# "correct":true and "failed":0. perfbench is a module of its own that
# `go build ./...` never compiles, so this is where a change to an API it
# uses fails. Used by CI.
BENCH_WORKLOADS = cold-solve hot-inline mutate-ref cluster-fanout

bench-smoke:
	@for w in $(BENCH_WORKLOADS); do \
		line=$$(bash perfbench/run.sh --workload $$w --seconds 1 | tail -n 1); \
		echo "$$w: $$line"; \
		if ! echo "$$line" | grep -q '"correct":true' || ! echo "$$line" | grep -Eq '"failed":0[,}]'; then \
			echo "bench-smoke: workload $$w failed" >&2; exit 1; \
		fi; \
	done

# Machine-readable benchmark snapshot: round loop, solver end-to-end and
# serving cold/hot paths, with allocation stats, written to BENCH_$(PR).json.
bench-json:
	@if [ -z "$(PR)" ]; then \
		echo "usage: make bench-json PR=<n>  (writes BENCH_<n>.json)" >&2; exit 2; \
	fi
	@{ $(GO) test -run='^$$' -benchmem -benchtime=5x \
		-bench='^(BenchmarkE13Headline|BenchmarkServeColdVsCacheHit|BenchmarkServeSchedulerDepth1)$$' . ; \
	   $(GO) test -run='^$$' -benchmem -benchtime=5x \
		-bench='^BenchmarkMessageDelivery$$' ./internal/congest/ ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"

# Benchmark regression gate: compares the two highest-numbered
# BENCH_<n>.json snapshots in the repo root and fails on >15% ns/op or
# allocs/op regressions. Pinned to the macro benchmarks only: the
# nanosecond-scale MessageDelivery microbenchmarks are pure noise at the
# snapshot's -benchtime=5x and would trip the gate randomly.
bench-diff:
	$(GO) run ./cmd/benchdiff -pin \
		BenchmarkE13Headline,BenchmarkServeColdVsCacheHit/cold,BenchmarkServeColdVsCacheHit/hit,BenchmarkServeSchedulerDepth1

# Scale benchmarks, one iteration each: the 1M-node seam-parity suite and
# the 10M-node round loop. Minutes of wall clock — not part of `make test`.
bench-scale:
	$(GO) test -run='^$$' -benchtime=1x -benchmem \
		-bench='^(BenchmarkPowerLawSeams1M|BenchmarkRoundLoop10M)$$' .

experiments:
	$(GO) run ./cmd/experiments -o EXPERIMENTS.md

# E20: reliable-transport recovery sweep (retention and overhead vs the
# passive fault layer on the E18 grid).
recovery-sweep:
	$(GO) run ./cmd/experiments -run E20

clean:
	$(GO) clean ./...
