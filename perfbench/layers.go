package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// tracedRun measures the per-layer metrics. It spends half of dur on an
// untraced single-client phase (the baseline for the tracing overhead and
// the runtime.* numbers) and half on a traced single-client replay of the
// same operations on a fresh system, then prints the self-time summary and
// writes the spans as JSON lines under dir.
func tracedRun(out io.Writer, w workload, dur time.Duration, dir, name string, seed uint64) (result, error) {
	half := dur / 2
	ops := w.ops()

	sys, err := w.boot(nil)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := sys.counters()
	res, elapsed := closedLoop(sys.snd, ops, 1, half)
	c1 := sys.counters()
	runtime.ReadMemStats(&m1)
	if err := sys.close(); err != nil {
		return result{}, fmt.Errorf("shut down: %w", err)
	}
	base := w.verify(res, c0, c1, nil)

	t := newTracer()
	sys, err = w.boot(t)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	c0 = sys.counters()
	tres, busy := tracedLoop(t, sys.snd, w, ops, half, func() {
		t.value("repair.queue_depth", float64(sys.front.Stats().RepairQueueDepth))
	})
	c1 = sys.counters()
	if err := sys.close(); err != nil {
		return result{}, fmt.Errorf("shut down: %w", err)
	}
	traced := w.verify(tres, c0, c1, t)
	// weight_ratio is an end-to-end metric; the traced phase only has to
	// answer correctly, not fill the quality window.
	traced.window = traced.windowOps

	base.report(out)
	traced.report(out)
	untracedRPS := float64(base.attempted) / elapsed.Seconds()
	tracedRPS := float64(traced.attempted) / busy.Seconds()
	fmt.Fprintf(out, "perfbench: tracing overhead: %.2f ops/s traced (time inside operations) vs %.2f untraced, ratio %.4f\n",
		tracedRPS, untracedRPS, tracedRPS/untracedRPS)
	summarize(out, t.spans)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, t.spans); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "perfbench: %d spans written to %s\n", len(t.spans), path)

	m := layerMetrics(t)
	ops1 := float64(max(base.attempted, 1))
	m["runtime.alloc_mb_per_req"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops1, "MB"}
	m["runtime.gc_cycles_per_100req"] = metric{float64(m1.NumGC-m0.NumGC) * 100 / ops1, "count"}
	pause := 0.0
	if gcs := m1.NumGC - m0.NumGC; gcs > 0 {
		pause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / float64(gcs)
	}
	m["runtime.gc_pause_ms"] = metric{pause, "ms"}
	m["trace.throughput_ratio"] = metric{tracedRPS / untracedRPS, "ratio"}
	upgrades := float64(c1.svc.RepairUpgrades - c0.svc.RepairUpgrades)
	m["repair.upgrades_per_s"] = metric{upgrades / busy.Seconds(), "1/s"}
	share := 0.0
	if healed := sum(t.values["repair.healed"]); healed > 0 {
		share = 1 - min(1, upgrades/healed)
	}
	m["repair.degraded_share"] = metric{share, "ratio"}

	return result{
		Correct:   base.correct() && traced.correct(),
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// layerMetrics derives the span- and sample-based per-layer metrics. Times
// are medians over operations; per-request counts are means. A layer the
// workload does not load reads 0.
func layerMetrics(t *tracer) map[string]metric {
	self := selfTimes(t.spans)
	durs := map[string][]float64{}
	allocs := map[string][]float64{}
	var handler, overhead, transport []float64
	partMax := map[int64]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		ms := float64(s.dur()) / 1e6
		durs[s.Name] = append(durs[s.Name], ms)
		if s.Allocs > 0 {
			allocs[s.Name] = append(allocs[s.Name], float64(s.Allocs))
		}
		switch s.Kind {
		case kindHandler:
			handler = append(handler, ms)
			overhead = append(overhead, float64(self[s.ID])/1e6)
		case kindRequest:
			transport = append(transport, float64(self[s.ID])/1e6)
		case kindPart:
			partMax[s.Parent] = max(partMax[s.Parent], ms)
		}
	}
	var partMaxes, fanout []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "cluster.solve" {
			pm := partMax[s.ID]
			partMaxes = append(partMaxes, pm)
			fanout = append(fanout, float64(s.dur())/1e6-pm)
		}
	}
	v := t.values
	engineNS := sum(v["congest.ns"])
	perRound, msgRate := 0.0, 0.0
	if r := sum(v["congest.rounds"]); r > 0 {
		perRound = engineNS / 1e3 / r
	}
	if engineNS > 0 {
		msgRate = sum(v["congest.messages"]) / (engineNS / 1e9)
	}
	maxDepth := 0.0
	for _, d := range v["repair.queue_depth"] {
		maxDepth = max(maxDepth, d)
	}
	return map[string]metric{
		"server.decode_ms":                  {median(durs["server.decode"]), "ms"},
		"graph.read_json_ms":                {median(durs["graph.read_json"]), "ms"},
		"graph.read_json_allocs":            {median(allocs["graph.read_json"]), "count"},
		"graph.hash_ms":                     {median(durs["graph.hash"]), "ms"},
		"graph.canonical_kb":                {median(v["graph.canonical_kb"]), "KB"},
		"server.cache_hit_ratio":            {mean(v["server.cached"]), "ratio"},
		"server.dedup_count":                {sum(v["server.shared"]), "count"},
		"gen.build_ms":                      {median(durs["gen.build"]), "ms"},
		"plan.choose_us":                    {median(durs["plan.choose"]) * 1000, "us"},
		"server.fingerprint_us":             {median(durs["server.fingerprint"]) * 1000, "us"},
		"maxis.solve_ms":                    {median(durs["maxis.solve"]), "ms"},
		"maxis.solve_allocs":                {median(allocs["maxis.solve"]), "count"},
		"maxis.rounds":                      {median(v["maxis.rounds"]), "count"},
		"maxis.messages":                    {median(v["maxis.messages"]), "count"},
		"maxis.bits":                        {median(v["maxis.bits"]), "count"},
		"congest.round_us":                  {perRound, "us"},
		"congest.msgs_per_s":                {msgRate, "1/s"},
		"server.handler_ms":                 {median(handler), "ms"},
		"server.overhead_ms":                {median(overhead), "ms"},
		"client.transport_ms":               {median(transport), "ms"},
		"server.patch_ms":                   {median(durs["server.patch"]), "ms"},
		"server.ref_solve_ms":               {median(durs["server.ref_solve"]), "ms"},
		"server.invalidated_per_patch":      {mean(v["server.invalidated"]), "count"},
		"maxis.components_resolved_per_req": {mean(v["maxis.components_resolved"]), "count"},
		"repair.queue_depth_max":            {maxDepth, "count"},
		"partition.split_ms":                {median(durs["partition.split"]), "ms"},
		"partition.cut_edges":               {median(v["partition.cut_edges"]), "count"},
		"partition.size_imbalance":          {median(v["partition.size_imbalance"]), "ratio"},
		"cluster.solve_ms":                  {median(durs["cluster.solve"]), "ms"},
		"cluster.part_ms_max":               {median(partMaxes), "ms"},
		"cluster.fanout_overhead_ms":        {median(fanout), "ms"},
		"cluster.conflicts_per_req":         {mean(v["cluster.conflicts"]), "count"},
		"cluster.readmitted_per_req":        {mean(v["cluster.readmitted"]), "count"},
		"cluster.floor_wins":                {sum(v["cluster.floor"]), "count"},
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
