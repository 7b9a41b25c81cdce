// Command pinservd is the always-on pinning-advisor daemon: clients POST a
// scenario (a registered name, optionally with replacement cells, or a
// full inline spec) to /run and get the predicted figure plus a ranked
// pinning recommendation. Repeated questions are served from a sharded
// response cache; identical in-flight questions coalesce onto one
// simulation; saturation sheds load with 429 instead of collapsing.
//
// Usage:
//
//	pinservd -listen :8080 -quick                 # serve on TCP
//	pinservd -listen unix:/run/pinserv.sock       # serve on a unix socket
//	pinservd -quick -store runs/ -warm fig3,fig4  # durable store, pre-warmed
//	pinservd -quick -selftest -min-rps 10000      # boot, verify, load-test, exit
//
// Endpoints:
//
//	POST /run        {"name":"fig3"} or {"scenario":{...}}, plus optional
//	                 "cells", "reps", "seed", "recommend" — see README
//	GET  /healthz    liveness + degraded-store flag
//	GET  /statsz     serving counters (warm/coalesced/simulated/shed) and
//	                 the trial store's audit snapshot
//	GET  /scenarios  the registered scenario catalog
//
// Every /run response carries X-Pinserv-Source: warm | coalesced |
// simulated — the provenance is observable but never changes the body.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/storecli"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8080", "listen address: host:port, or unix:/path/to.sock")
		reps       = flag.Int("reps", 0, "default repetitions per cell (0 = scenario defaults)")
		seed       = flag.Uint64("seed", 42, "default random seed")
		quick      = flag.Bool("quick", false, "shrink workloads for fast answers")
		workers    = flag.Int("workers", 0, "per-simulation trial fan-out (0 = GOMAXPROCS)")
		store      = flag.String("store", "", "durable trial store directory: answers persist across restarts")
		merge      = flag.String("merge", "", "comma list of trial store directories to load at boot")
		degraded   = flag.String("store-degraded", "fail", "unusable -store directory policy: fail or allow")
		verbose    = flag.Bool("v", false, "print trial store statistics on stderr at shutdown")
		inflight   = flag.Int("max-inflight", 0, "concurrent simulation bound (0 = GOMAXPROCS)")
		queue      = flag.Int("max-queue", 0, "cold requests allowed to wait for a slot (0 = 2*max-inflight)")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		warm       = flag.String("warm", "", "comma list of scenario names to pre-warm at boot ('all' = every registered)")

		selftest = flag.Bool("selftest", false, "boot on a private socket, verify coalescing and warm throughput, exit")
		stConns  = flag.Int("selftest-conns", 4, "selftest load connections")
		stDur    = flag.Duration("selftest-duration", 3*time.Second, "selftest load duration")
		stHerd   = flag.Int("selftest-herd", 32, "selftest concurrent identical cold requests")
		minRPS   = flag.Float64("min-rps", 10000, "selftest fails below this warm req/s")
	)
	flag.Parse()

	cfg := experiments.Config{Reps: *reps, Seed: *seed, Quick: *quick, Executor: experiments.Pool{Workers: *workers}}
	_, finish, err := storecli.Apply("pinservd", &cfg, storecli.Options{
		Store: *store, Merge: *merge, Degraded: *degraded, Verbose: *verbose,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if finish != nil {
		defer finish()
	}

	srv := serve.NewServer(serve.Options{
		Config:      cfg,
		MaxInflight: *inflight,
		MaxQueue:    *queue,
		RetryAfter:  *retryAfter,
	})

	if *warm != "" {
		if err := prewarm(srv, *warm); err != nil {
			fatalf("%v", err)
		}
	}

	if *selftest {
		if err := runSelftest(srv, *stConns, *stDur, *stHerd, *minRPS); err != nil {
			fatalf("selftest: %v", err)
		}
		fmt.Println("pinservd: selftest passed")
		return
	}

	network, addr := loadtest.ParseListen(*listen)
	ln, err := net.Listen(network, addr)
	if err != nil {
		fatalf("%v", err)
	}
	// SIGINT/SIGTERM drain in-flight requests and return from main, so the
	// deferred finish syncs and closes the trial store.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "pinservd: serving on %s\n", *listen)
	if err := serveUntil(ctx, newHTTPServer(srv), ln); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(os.Stderr, "pinservd: drained")
}

// Connection timeouts of the daemon's HTTP server. Reads are bounded
// because /run bodies are capped at 1 MiB; there is no write timeout, as a
// cold paper-scale /run can legitimately simulate for longer than any
// fixed bound before the response is written.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns the daemon's HTTP server for h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// drainTimeout bounds how long a shutdown waits for in-flight requests
// (a cold /run may be mid-simulation) before their connections are closed.
const drainTimeout = 30 * time.Second

// serveUntil serves hs on ln until ctx is cancelled, then stops accepting
// connections and waits up to drainTimeout for in-flight requests to
// finish. A drained shutdown returns nil.
func serveUntil(ctx context.Context, hs *http.Server, ln net.Listener) error {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// prewarm runs the named scenarios through the server's own engine so
// their responses are warm before the first client connects.
func prewarm(srv *serve.Server, list string) error {
	names := []string{}
	if list == "all" {
		names = experiments.ScenarioNames()
	} else {
		for _, n := range strings.Split(list, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	for _, name := range names {
		rec := newRecorder()
		srv.ServeHTTP(rec, postRequest(fmt.Sprintf(`{"name":%q}`, name)))
		if rec.code != http.StatusOK {
			return fmt.Errorf("pinservd: pre-warm %s: %d %s", name, rec.code, rec.body.String())
		}
		fmt.Fprintf(os.Stderr, "pinservd: pre-warmed %s\n", name)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pinservd: "+format+"\n", args...)
	os.Exit(1)
}
