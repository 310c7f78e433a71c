package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"distmwis/internal/cluster"
	"distmwis/internal/server"
)

// serverOptions are the cmd/maxisd flag defaults: the configuration a
// plain `maxisd` serves with (no journals, no chaos, no rate limit).
func serverOptions() server.Options {
	return server.Options{
		Workers:       4,
		SolveWorkers:  1,
		QueueDepth:    256,
		CacheBytes:    64 << 20,
		DrainTimeout:  30 * time.Second,
		RestartBudget: 32,
	}
}

// system is one booted system under test: a front server answering the
// benchmark's clients through snd and, for cluster-fanout, the coordinator
// of its backends. Everything runs in this process on loopback listeners.
type system struct {
	front *server.Server
	coord *cluster.Coordinator
	snd   *sender
	stops []func() error
}

// serve starts h on a fresh loopback listener. The returned stop function
// closes the HTTP server and waits for its serve goroutine. It closes
// rather than shuts down gracefully: the benchmark stops a system only
// after every operation has been answered, and a graceful shutdown would
// wait seconds for connections a client dialled but never used.
func serve(h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop := func() error {
		err := hs.Close()
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// startServer boots one maxisd server behind wrap (a traced run's span
// middleware, which passes the handler through on a nil tracer) and
// registers its shutdown.
func (s *system) startServer(opts server.Options, wrap func(http.Handler) http.Handler) (*server.Server, string, error) {
	srv := server.New(opts)
	base, stop, err := serve(wrap(srv.Handler()))
	if err != nil {
		return nil, "", err
	}
	s.stops = append(s.stops, func() error {
		err := stop()
		if derr := srv.Drain(); err == nil {
			err = derr
		}
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		return err
	})
	return srv, base, nil
}

// bootSingle starts one server with the maxisd defaults and warms it.
func bootSingle(t *tracer, warm ...[]call) (*system, error) {
	sys := &system{}
	srv, base, err := sys.startServer(serverOptions(), t.front)
	if err != nil {
		return nil, err
	}
	sys.front, sys.snd = srv, newSender(base)
	for _, calls := range warm {
		if err := sys.warm(calls); err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return sys, nil
}

// close stops everything in reverse start order and waits for it.
func (s *system) close() error {
	if s.snd != nil {
		s.snd.close()
	}
	if s.coord != nil {
		s.coord.Stop()
	}
	var err error
	for i := len(s.stops) - 1; i >= 0; i-- {
		if serr := s.stops[i](); err == nil {
			err = serr
		}
	}
	s.stops = nil
	return err
}

// counters is a snapshot of the program's own counters, taken around the
// timed phase for the workload-integrity assertions.
type counters struct {
	svc     server.ServiceStats
	cluster cluster.Stats
}

func (s *system) counters() counters {
	c := counters{svc: s.front.Stats()}
	if s.coord != nil {
		c.cluster = s.coord.Stats()
	}
	return c
}

// warm sends calls with up to two clients and fails on any non-2xx answer.
// It is part of set-up: it fills the caches and runs every code path once.
func (s *system) warm(calls []call) error {
	var wg sync.WaitGroup
	errs := make([]error, len(calls))
	next := make(chan int)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var ar arena
			for i := range next {
				r := s.snd.do(calls[i], &buf, &ar)
				switch {
				case r.err != nil:
					errs[i] = r.err
				case r.status < 200 || r.status > 299:
					errs[i] = fmt.Errorf("%s %s: HTTP %d: %s", calls[i].method, calls[i].path, r.status, bytes.TrimSpace(r.body))
				}
			}
		}()
	}
	for i := range calls {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode %T: %v", v, err)) // only fixed benchmark types are encoded
	}
	return b
}
