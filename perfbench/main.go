// Command perfbench is the repository's serving benchmark. It boots the real
// maxisd handler stack (server.New(...).Handler(), and for cluster-fanout a
// cluster.New coordinator over three backends) on loopback listeners inside
// this process, drives it with a closed loop of clients replaying a seeded
// operation sequence, checks every answer, and prints one JSON result as
// the last line of standard output.
//
//	perfbench -workload cold-solve -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics of one timed run.
// With -trace 1 it holds the per-layer metrics of a traced run (see
// trace.go and README.md). Run it through run.sh, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: cold-solve|hot-inline|mutate-ref|cluster-fanout")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed replays the same operations")
		seconds = fs.Int("seconds", 20, "length of the measured phase in seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		root    = fs.String("root", ".", "checkout root; trace files go to <root>/.bench_build/trace")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d clients=%d\n",
		*name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), w.clients())
	fmt.Fprintf(stdout, "perfbench: server options %+v\n", serverOptions())
	dur := time.Duration(*seconds) * time.Second

	var res result
	if *traced == 0 {
		res, err = timedRun(stdout, w, dur)
	} else {
		res, err = tracedRun(stdout, w, dur, filepath.Join(*root, ".bench_build", "trace"), *name, *seed)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bootTimed boots a fresh system the given number of times, keeping the
// last, and returns the set-up durations. Only calls into the program are
// timed: server boot, listeners, PUTs and warm-up requests.
func bootTimed(w workload, n int) (*system, []float64, error) {
	var times []float64
	var sys *system
	for k := 0; k < n; k++ {
		start := time.Now()
		var err error
		sys, err = w.boot(nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if k < n-1 {
			if err := sys.close(); err != nil {
				return nil, nil, fmt.Errorf("shut down set-up %d: %w", k, err)
			}
		}
	}
	return sys, times, nil
}

// timedRun measures the end-to-end metrics: several set-ups, then one timed
// closed-loop phase with tracing off, then the checks of every answer.
func timedRun(out io.Writer, w workload, dur time.Duration) (result, error) {
	sys, setups, err := bootTimed(w, w.setups())
	if err != nil {
		return result{}, err
	}
	ops := w.ops()
	runtime.GC()
	before := sys.counters()
	cpu0 := cpuTime()
	res, elapsed := closedLoop(sys.snd, ops, w.clients(), dur)
	cpu := cpuTime() - cpu0
	after := sys.counters()
	// The peak is read before the checks, whose own allocations are not
	// the program's.
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	if err := sys.close(); err != nil {
		return result{}, fmt.Errorf("shut down: %w", err)
	}
	if laneOpsExhausted(res, w.clients()) {
		return result{}, fmt.Errorf("the operation sequence ran out before %v; lengthen it", dur)
	}
	v := w.verify(res, before, after, nil)

	var lat []float64
	for i := range res {
		if res[i].done {
			lat = append(lat, float64(res[i].lat)/1e6)
		}
	}
	sort.Float64s(lat)
	ok := v.attempted - v.failed
	p95 := quantile(lat, 0.95)
	beyond := 0
	for _, x := range lat {
		if x > p95 {
			beyond++
		}
	}
	v.report(out)
	fmt.Fprintf(out, "perfbench: %d operations in %.3fs; %d latency samples, %d beyond p95; set-ups %v s\n",
		v.attempted, elapsed.Seconds(), len(lat), beyond, setups)
	if beyond < 10 {
		fmt.Fprintf(out, "perfbench: warning: only %d samples beyond p95; lengthen the run\n", beyond)
	}
	return result{
		Correct:   v.correct(),
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics: map[string]metric{
			"throughput_rps": {float64(ok) / elapsed.Seconds(), "1/s"},
			"latency_p50_ms": {quantile(lat, 0.5), "ms"},
			"latency_p95_ms": {p95, "ms"},
			"cpu_ms_per_req": {cpu.Seconds() * 1000 / float64(max(v.attempted, 1)), "ms"},
			"weight_ratio":   {v.weightRatio(), "ratio"},
			"setup_s":        {median(setups), "s"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}, nil
}
