package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// call is one pre-encoded HTTP request of an operation. span names the
// server-side handler span it produces in a traced run.
type call struct {
	method string
	path   string
	body   []byte
	span   string
}

// op is one operation of a workload's sequence: one call, or a pair timed
// together (mutate-ref's PATCH then graph_ref solve).
type op struct{ calls []call }

type callResult struct {
	status int
	body   []byte
	err    error
}

type opResult struct {
	done  bool
	lat   time.Duration
	calls []callResult
}

// sender sends calls to one base URL over a shared keep-alive transport.
type sender struct {
	hc   *http.Client
	base string
}

func newSender(base string) *sender {
	return &sender{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
	}
}

func (d *sender) close() { d.hc.CloseIdleConnections() }

// arena hands out response-body storage from large chunks, so the timed
// loop does not allocate once per response.
type arena struct{ chunk []byte }

func (a *arena) copy(b []byte) []byte {
	if len(b) > cap(a.chunk)-len(a.chunk) {
		size := 4 << 20
		if len(b) > size {
			size = len(b)
		}
		a.chunk = make([]byte, 0, size)
	}
	start := len(a.chunk)
	a.chunk = append(a.chunk, b...)
	return a.chunk[start:len(a.chunk):len(a.chunk)]
}

func (d *sender) do(c call, buf *bytes.Buffer, ar *arena) callResult {
	req, err := http.NewRequest(c.method, d.base+c.path, bytes.NewReader(c.body))
	if err != nil {
		return callResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.hc.Do(req)
	if err != nil {
		return callResult{err: err}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return callResult{status: resp.StatusCode, body: ar.copy(buf.Bytes()), err: err}
}

// runOp sends an operation's calls in order and times the whole operation.
func (d *sender) runOp(o *op, buf *bytes.Buffer, ar *arena) opResult {
	res := opResult{done: true, calls: make([]callResult, len(o.calls))}
	start := time.Now()
	for k, c := range o.calls {
		res.calls[k] = d.do(c, buf, ar)
	}
	res.lat = time.Since(start)
	return res
}

// closedLoop replays ops with the given number of clients for dur. Client k
// owns the lane of operations k, k+clients, k+2·clients, ... and runs it
// in order, sending its next operation only after the previous one
// completed; no client starts an operation after the deadline, and
// operations in flight at the deadline run to completion. It returns the
// per-operation results and the wall time from start until the last
// operation finished.
func closedLoop(d *sender, ops []op, clients int, dur time.Duration) ([]opResult, time.Duration) {
	res := make([]opResult, len(ops))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf bytes.Buffer
			var ar arena
			for i := k; i < len(ops) && time.Now().Before(deadline); i += clients {
				res[i] = d.runOp(&ops[i], &buf, &ar)
			}
		}(k)
	}
	wg.Wait()
	return res, time.Since(start)
}

// laneOpsExhausted reports whether some lane ran out of operations before
// the deadline — the sequence was too short for this host's speed.
func laneOpsExhausted(res []opResult, clients int) bool {
	for k := 0; k < clients && k < len(res); k++ {
		if last := k + (len(res)-1-k)/clients*clients; res[last].done {
			return true
		}
	}
	return false
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
