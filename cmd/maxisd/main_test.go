package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"distmwis/internal/reliable"
)

// TestDaemonLifecycle boots the daemon on an ephemeral port, probes the
// health and solve endpoints, then delivers SIGTERM and expects a clean
// drain and zero exit.
func TestDaemonLifecycle(t *testing.T) {
	var out, errBuf bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out, &errBuf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", errBuf.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	body := `{"gen":{"kind":"gnp","n":80,"p":0.1,"weights":"poly2","seed":4},"alg":"goodnodes","seed":4}`
	resp, err = http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var solved bytes.Buffer
	_, _ = solved.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(solved.String(), `"status":"done"`) {
		t.Fatalf("solve: code=%d body=%s", resp.StatusCode, solved.String())
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	_, _ = metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(metrics.String(), "maxisd_requests_total 1") {
		t.Fatalf("metrics missing request counter:\n%s", metrics.String())
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, errBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained, exiting") {
		t.Fatalf("missing drain message in output:\n%s", out.String())
	}
}

// TestDaemonCutsUnfinishedHeaders pins the slow-client guard: a connection
// that starts a request and never finishes its headers is closed by the
// daemon after readHeaderTimeout, without a response.
func TestDaemonCutsUnfinishedHeaders(t *testing.T) {
	var out, errBuf bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, &out, &errBuf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", errBuf.String())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: maxisd\r\n"); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
	got, err := io.ReadAll(conn)
	waited := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after the unfinished headers", waited)
	}
	if len(got) != 0 {
		t.Fatalf("unfinished request got a response: %q", got)
	}
	if waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, errBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestDaemonSIGINTWithJournalAndChaos pins three contracts at once: SIGINT
// drains exactly like SIGTERM (and the log names the signal), -journal
// opens the write-ahead journal, and -chaos arms the injector.
func TestDaemonSIGINTWithJournalAndChaos(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.wal")
	var out, errBuf bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-workers", "2",
			"-journal", journal,
			"-chaos", "seed=3,latency=1:1ms",
		}, &out, &errBuf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", errBuf.String())
	}

	body := `{"gen":{"kind":"cycle","n":40},"alg":"goodnodes","async":true}`
	resp, err := http.Post("http://"+addr+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async solve: code=%d", resp.StatusCode)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, errBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGINT")
	}
	for _, want := range []string{
		"shutdown signal received (interrupt)",
		"drained, exiting",
		"journal " + journal + " open, recovered 0 jobs, replayed 0 mutations",
		"chaos injection armed",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// The drained job must have been committed: nothing pending on disk.
	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := reliable.ReadWAL(f)
	if err != nil {
		t.Fatal(err)
	}
	if pending := reliable.PendingWAL(recs); len(pending) != 0 {
		t.Fatalf("journal has %d pending jobs after a clean drain: %+v", len(pending), pending)
	}
}

// TestDaemonGraphJournalSurvivesRestart boots the daemon with -journal,
// PUTs and PATCHes a graph, stops the daemon, then boots a second one on
// the same journal: the mutation must have been replayed and the handle
// must resolve through its original hash.
func TestDaemonGraphJournalSurvivesRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "maxisd.wal")
	boot := func() (addr string, out *bytes.Buffer, done chan int) {
		out = &bytes.Buffer{}
		ready := make(chan string, 1)
		done = make(chan int, 1)
		go func() {
			done <- run([]string{
				"-addr", "127.0.0.1:0", "-workers", "2",
				"-journal", journal,
				"-repair-interval", "1ms", "-repair-budget", "64",
			}, out, out, ready)
		}()
		select {
		case addr = <-ready:
		case <-time.After(5 * time.Second):
			t.Fatalf("daemon never became ready; output: %s", out.String())
		}
		return addr, out, done
	}
	stop := func(done chan int, out *bytes.Buffer) {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("exit code %d; output: %s", code, out.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit after SIGTERM")
		}
	}
	doReq := func(method, url, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.String()
	}

	addr, out, done := boot()
	base := "http://" + addr
	code, body := doReq("PUT", base+"/v1/graph", `{"n":4,"ids":[1,2,3,4],"weights":[5,6,7,8],"edges":[[0,1],[2,3]]}`)
	if code != http.StatusOK {
		t.Fatalf("PUT: code=%d body=%s", code, body)
	}
	var put struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal([]byte(body), &put); err != nil {
		t.Fatal(err)
	}
	if code, body = doReq("PATCH", base+"/v1/graph/"+put.Hash, `{"add_edges":[[1,2]]}`); code != http.StatusOK {
		t.Fatalf("PATCH: code=%d body=%s", code, body)
	}
	stop(done, out)
	// Read the output only after the daemon exited — the done channel is the
	// happens-before edge; reading the shared buffer while the daemon can
	// still write (its shutdown lines) is a data race.
	if !strings.Contains(out.String(), "journal "+journal+" open, recovered 0 jobs, replayed 0 mutations") {
		t.Fatalf("missing journal boot line:\n%s", out.String())
	}

	addr, out, done = boot()
	code, body = doReq("GET", "http://"+addr+"/v1/graph/"+put.Hash, "")
	if code != http.StatusOK || !strings.Contains(body, `"m":3`) || !strings.Contains(body, `"version":1`) {
		t.Fatalf("restarted handle: code=%d body=%s", code, body)
	}
	stop(done, out)
	if !strings.Contains(out.String(), "replayed 2 mutations") {
		t.Fatalf("second boot did not replay the journal:\n%s", out.String())
	}
}

func TestDaemonBadChaosSpec(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0", "-chaos", "err=1.5"}, &out, &errBuf, nil); code != 1 {
		t.Fatalf("bad chaos spec: exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "-chaos") {
		t.Fatalf("missing chaos error: %s", errBuf.String())
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-solve-workers", "0"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(append(args, "-addr", "127.0.0.1:0"), &out, &errBuf, nil); code == 0 {
			t.Errorf("args %v: expected non-zero exit", args)
		}
		if errBuf.Len() == 0 {
			t.Errorf("args %v: expected an error message", args)
		}
	}
}

func TestDaemonBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errBuf, nil); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}
