package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/storecli"
)

// TestNewHTTPServerTimeouts pins the daemon's connection timeouts: bounded
// header, body and idle reads, and no write timeout (a cold paper-scale
// /run may simulate for longer than any fixed bound).
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.Handler == nil {
		t.Fatal("handler not set")
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", hs.ReadHeaderTimeout, 10 * time.Second},
		{"ReadTimeout", hs.ReadTimeout, 30 * time.Second},
		{"IdleTimeout", hs.IdleTimeout, 120 * time.Second},
		{"WriteTimeout", hs.WriteTimeout, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestServeUntilDrainsOnCancel: a shutdown signal that lands while a cold
// /run is simulating lets that request finish with a 200, serveUntil
// returns nil, and the store closed afterwards (main's deferred finish)
// holds every trial the request simulated when reopened.
func TestServeUntilDrainsOnCancel(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	midFlight := make(chan struct{})
	var once sync.Once
	// The first completed trial signals mid-flight, then holds the
	// simulation until the shutdown has closed the listener, so the drain
	// provably starts with this request still running.
	hold := func(done, total int) {
		once.Do(func() {
			close(midFlight)
			<-ctx.Done()
			for {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				c.Close()
				time.Sleep(time.Millisecond)
			}
		})
	}
	cfg := experiments.Config{Quick: true, Seed: 42, Executor: experiments.Pool{Workers: 1}, Progress: hold}
	_, finish, err := storecli.Apply("pinservd", &cfg, storecli.Options{Store: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := cfg.Memo
	served := make(chan error, 1)
	go func() { served <- serveUntil(ctx, newHTTPServer(serve.NewServer(serve.Options{Config: cfg})), ln) }()

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/run", "application/json", strings.NewReader(`{"name":"fig3"}`))
		if err != nil {
			t.Errorf("in-flight /run: %v", err)
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-midFlight
	cancel()
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight /run got %d, want 200", code)
	}
	if err := <-served; err != nil {
		t.Fatalf("serveUntil = %v, want nil after a drained shutdown", err)
	}
	simulated := st.Stats().Entries
	if simulated == 0 {
		t.Fatal("the request simulated nothing")
	}
	finish()

	reopened, err := experiments.OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Stats().Entries; got != simulated {
		t.Fatalf("reopened store holds %d trials, want the %d simulated before shutdown", got, simulated)
	}
}
