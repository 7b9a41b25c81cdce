package main

// The -selftest harness: boot the server on a private unix socket, prove
// the two serving invariants end-to-end (a thundering herd of identical
// cold requests runs exactly one simulation; warm keys sustain the target
// throughput with bounded tail latency), print the evidence, exit nonzero
// on any violation. CI runs this as the serving gate.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/loadtest"
)

const selftestBody = `{"name":"fig3"}`

func runSelftest(srv *serve.Server, conns int, dur time.Duration, herd int, minRPS float64) error {
	dir, err := os.MkdirTemp("", "pinservd-selftest-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "pinservd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv)
	go hs.Serve(ln)
	defer hs.Close()

	client := unixClient(sock)

	// Phase 1 — coalescing: herd identical cold requests, count simulations.
	fmt.Fprintf(os.Stderr, "pinservd: selftest: herding %d identical cold requests\n", herd)
	sources := make([]string, herd)
	errs := make([]error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sources[i], errs[i] = postRun(client, selftestBody)
		}(i)
	}
	wg.Wait()
	counts := map[string]int{}
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			return fmt.Errorf("herd request %d: %w", i, errs[i])
		}
		counts[sources[i]]++
	}
	st, err := statsz(client)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pinservd: selftest: herd sources %v; statsz simulated=%d coalesced=%d warm=%d shed=%d\n",
		counts, st.Simulated, st.Coalesced, st.Warm, st.Shed)
	if st.Simulated != 1 {
		return fmt.Errorf("herd of %d ran %d simulations, want exactly 1", herd, st.Simulated)
	}
	if st.Shed != 0 {
		return fmt.Errorf("herd shed %d requests", st.Shed)
	}

	// Phase 2 — warm throughput: every response must come from the response
	// cache, errors are failures, and the rate must clear the bar.
	fmt.Fprintf(os.Stderr, "pinservd: selftest: warm load, %d conns for %s\n", conns, dur)
	rep, err := loadtest.Run(loadtest.Options{
		URL: "http://pinservd/run", Socket: sock, Body: []byte(selftestBody),
		Conns: conns, Duration: dur, WantSource: "warm",
	})
	if err != nil {
		return err
	}
	fmt.Printf("pinservd: selftest: %s\n", rep.String())
	if rep.Errors > 0 {
		return fmt.Errorf("%d errors under warm load", rep.Errors)
	}
	if rep.WrongSource > 0 {
		return fmt.Errorf("%d responses not served warm", rep.WrongSource)
	}
	if rep.RPS < minRPS {
		return fmt.Errorf("warm throughput %.0f req/s below the %.0f req/s bar", rep.RPS, minRPS)
	}
	return nil
}

// unixClient returns an http.Client whose every connection dials the
// given unix socket.
func unixClient(sock string) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
	}}
}

// postRun POSTs body to /run and returns the provenance header.
func postRun(c *http.Client, body string) (source string, err error) {
	resp, err := c.Post("http://pinservd/run", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%d: %s", resp.StatusCode, b)
	}
	return resp.Header.Get(serve.SourceHeader), nil
}

// statsz fetches and decodes /statsz.
func statsz(c *http.Client) (serve.StatsJSON, error) {
	var st serve.StatsJSON
	resp, err := c.Get("http://pinservd/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// recorder is a minimal in-process http.ResponseWriter for pre-warming
// without a listener (net/http/httptest is a test-only dependency).
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{code: http.StatusOK, header: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// postRequest builds an in-process POST /run request.
func postRequest(body string) *http.Request {
	req, err := http.NewRequest(http.MethodPost, "http://pinservd/run", strings.NewReader(body))
	if err != nil {
		panic(err)
	}
	return req
}
