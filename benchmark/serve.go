package main

// serve-mix: pinservd's engine in-process on a unix socket, driven by an
// open loop (warm keys at a fixed rate on one connection, cold keys at a
// low rate on another, every latency timed from the request's due time)
// and then a closed loop of warm keys on both connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchReqHeader carries a traced request's id ("w<n>" warm, "c<n>" cold)
// to the handler wrapper.
const benchReqHeader = "X-Bench-Req"

// daemon is one booted server with its pre-warmed keys.
type daemon struct {
	store  experiments.TrialStore
	hs     *http.Server
	served chan error
	sock   string
	keys   [][]byte // pre-warm request bodies
	bodies [][]byte // their responses
	// openMs is how long OpenTrialStore took at boot.
	openMs  float64
	handler *tracedHandler
}

// stop shuts the server down, waits for it, and closes the store.
func (d *daemon) stop() error {
	err := d.hs.Close()
	<-d.served
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// unixClient returns a client with at most one connection, dialing sock.
func unixClient(sock string) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", sock)
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		},
	}
}

// post sends one /run request and reads the whole response.
func post(c *http.Client, body []byte, id string) (status int, source string, resp []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, "http://pinservd/run", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(benchReqHeader, id)
	}
	res, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer res.Body.Close()
	resp, err = io.ReadAll(res.Body)
	return res.StatusCode, res.Header.Get(serve.SourceHeader), resp, err
}

// bootDaemon starts a server with a fresh disk store and pre-warms every
// serve name at sp.serveSeeds seeds.
func bootDaemon(sp spec, env runEnv, rep int, tr *tracer) (*daemon, error) {
	dir := filepath.Join(env.dir, fmt.Sprintf("serve-store-%d", rep))
	t0 := time.Now()
	store, err := experiments.OpenTrialStore(dir)
	if err != nil {
		return nil, err
	}
	openMs := ms(time.Since(t0))
	cfg := storeConfig(experiments.Config{Seed: env.seed, Quick: true}, store, env.workers, nil, tr)
	srv := serve.NewServer(serve.Options{Config: cfg, MaxInflight: env.workers})
	d := &daemon{store: store, served: make(chan error, 1), openMs: openMs,
		sock: filepath.Join(env.dir, fmt.Sprintf("s%d.sock", rep))}
	var h http.Handler = srv
	if tr != nil {
		d.handler = &tracedHandler{srv: srv, tr: tr}
		h = d.handler
	}
	ln, err := net.Listen("unix", d.sock)
	if err != nil {
		store.Close()
		return nil, err
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.served <- d.hs.Serve(ln) }()

	c := unixClient(d.sock)
	defer c.CloseIdleConnections()
	for _, name := range sp.serveNames {
		for k := 0; k < sp.serveSeeds; k++ {
			body := fmt.Appendf(nil, `{"name":%q,"seed":%d}`, name, sim.Substream(env.seed, 0x57_41, uint64(k)))
			status, source, resp, err := post(c, body, "")
			if err == nil {
				err = checkResponse(status, source, resp, "simulated", nil)
			}
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("pre-warm %s: %w", body, err)
			}
			d.keys = append(d.keys, body)
			d.bodies = append(d.bodies, resp)
		}
	}
	return d, nil
}

// coldBody is the j-th cold request: one cell of a cold scenario at a
// fresh seed, so the daemon must simulate it.
func coldBody(sp spec, seed uint64, j int) ([]byte, error) {
	name := sp.coldNames[j%len(sp.coldNames)]
	sc, ok := experiments.ScenarioByName(name)
	if !ok {
		return nil, experiments.UnknownScenarioError(name)
	}
	cell := sc.Cells[(j/len(sp.coldNames))%len(sc.Cells)]
	s := sim.Substream(seed, 0xC0_1D, uint64(j))
	return json.Marshal(serve.RunRequest{Name: name, Cells: []experiments.ScenarioCell{cell}, Seed: &s})
}

// handled is one request the traced handler saw.
type handled struct {
	id       string
	dur, sim time.Duration
}

// tracedHandler wraps serve.Server.ServeHTTP. A cold request's Execute
// span hangs under its handler span; at most one cold request is in
// flight, so the Execute wall the tracer gains during it is its own.
type tracedHandler struct {
	srv *serve.Server
	tr  *tracer

	mu       sync.Mutex
	warm     []handled
	cold     []handled
	warmSeen int
}

// ServeHTTP implements http.Handler.
func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := req.Header.Get(benchReqHeader)
	if !h.tr.on.Load() || id == "" {
		h.srv.ServeHTTP(w, req)
		return
	}
	cold := id[0] == 'c'
	t0 := time.Now()
	var spanID int32 = -1
	var exec0 int64
	if cold {
		spanID = h.tr.open("serve.ServeHTTP", -1, 10, t0)
		h.tr.parent.Store(spanID)
		exec0 = h.tr.execWall.Load()
	}
	h.srv.ServeHTTP(w, req)
	t1 := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if cold {
		h.tr.close(spanID, t1)
		h.tr.parent.Store(-1)
		h.cold = append(h.cold, handled{id: id, dur: t1.Sub(t0), sim: time.Duration(h.tr.execWall.Load() - exec0)})
		return
	}
	h.warm = append(h.warm, handled{id: id, dur: t1.Sub(t0)})
	// Warm spans are sampled into the trace file; every one is counted.
	if h.warmSeen%64 == 0 {
		h.tr.record("serve.ServeHTTP", -1, 11, t0, t1)
	}
	h.warmSeen++
}

// sent is one client request's timing.
type sent struct {
	id              string
	due, send, done time.Time
}

// openLoop sends requests on one connection at a fixed period from start
// until end, each as soon as it is due (or at once when the loop runs
// late). next returns the request body and the expected source and body
// (nil: any body).
func openLoop(c *http.Client, start, end time.Time, period time.Duration, prefix string, traced bool,
	next func(i int) (body []byte, wantSource string, wantBody []byte, err error)) ([]sent, []error) {
	var out []sent
	var errs []error
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			return out, errs
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		body, wantSource, wantBody, err := next(i)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		id := ""
		if traced {
			id = prefix + strconv.Itoa(i)
		}
		s := sent{id: id, due: due, send: time.Now()}
		status, source, resp, err := post(c, body, id)
		s.done = time.Now()
		if err == nil {
			err = checkResponse(status, source, resp, wantSource, wantBody)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, s)
	}
}

// closedLoop sends warm keys back to back on every client until end and
// returns each completed request's latency in milliseconds, and the
// failures.
func closedLoop(clients []*http.Client, d *daemon, seed uint64, end time.Time) ([]float64, []error) {
	var wg sync.WaitGroup
	lats := make([][]float64, len(clients))
	errs := make([][]error, len(clients))
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(sim.Substream(seed, 0xC1, uint64(ci)) >> 1)))
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				k := rng.Intn(len(d.keys))
				status, source, resp, err := post(c, d.keys[k], "")
				if err == nil {
					err = checkResponse(status, source, resp, "warm", d.bodies[k])
				}
				if err != nil {
					errs[ci] = append(errs[ci], err)
					continue
				}
				lats[ci] = append(lats[ci], ms(time.Since(t0)))
			}
		}(ci, c)
	}
	wg.Wait()
	var lat []float64
	var all []error
	for ci := range clients {
		lat = append(lat, lats[ci]...)
		all = append(all, errs[ci]...)
	}
	return lat, all
}

// serveMix runs the serving workload.
func serveMix(sp spec, env runEnv) *report {
	ref, stopRef, err := rpcReference(env.dir, env.workers)
	r := newReport(env.workers, ref)
	if err != nil {
		r.failf("reference: %v", err)
		return r
	}
	defer stopRef()
	var tr *tracer
	if env.traced {
		tr = newTracer()
		tr.on.Store(false)
	}
	var openTimes []float64
	d, cleanup, err := repeatSetup(sp, env, r, func(rep int) (*daemon, func(), error) {
		d, err := bootDaemon(sp, env, rep, tr)
		if err != nil {
			return nil, nil, err
		}
		openTimes = append(openTimes, d.openMs)
		return d, func() {
			if err := d.stop(); err != nil {
				r.failf("serve-mix: stop: %v", err)
			}
		}, nil
	})
	if err != nil {
		r.failf("setup: %v", err)
		return r
	}
	defer cleanup()

	for i := 0; i < 3; i++ {
		r.ref.sample()
	}
	openDur := time.Duration(float64(env.seconds) * openLoopShare)
	closedDur := env.seconds - openDur
	if tr != nil {
		tr.on.Store(true)
	}

	// Open loop: connection A warm at warmRate, connection B cold at coldRate.
	a, b := unixClient(d.sock), unixClient(d.sock)
	defer a.CloseIdleConnections()
	defer b.CloseIdleConnections()
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(openDur)
	rng := rand.New(rand.NewSource(int64(sim.Substream(env.seed, 0x4C_47) >> 1)))
	r.rssBegin()
	c0 := cpuTime()
	var warm, cold []sent
	var warmErrs, coldErrs []error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		warm, warmErrs = openLoop(a, start, end, time.Duration(float64(time.Second)/warmRate), "w", env.traced,
			func(int) ([]byte, string, []byte, error) {
				k := rng.Intn(len(d.keys))
				return d.keys[k], "warm", d.bodies[k], nil
			})
	}()
	go func() {
		defer wg.Done()
		cold, coldErrs = openLoop(b, start, end, time.Duration(float64(time.Second)/coldRate), "c", env.traced,
			func(j int) ([]byte, string, []byte, error) {
				body, err := coldBody(sp, env.seed, j)
				return body, "simulated", nil, err
			})
	}()
	wg.Wait()
	openCPU := cpuTime() - c0
	for i := 0; i < 3; i++ {
		r.ref.sample()
	}
	openOps := len(warm) + len(cold)
	r.attempted += openOps + len(warmErrs) + len(coldErrs)
	r.failed += len(warmErrs) + len(coldErrs)
	for _, e := range append(warmErrs, coldErrs...) {
		r.failf("serve-mix open loop: %v", e)
		break
	}

	// Closed loop on both connections: in a traced run the first half is
	// untraced and the second traced, for the tracing overhead.
	clients := []*http.Client{a, b}
	closedStart := time.Now()
	var closedLat []float64
	var closedErrs []error
	var rt runtimeDelta
	var overhead float64
	if tr != nil {
		tr.on.Store(false)
		half := closedDur / 2
		rt0 := readRuntime()
		l1, e1 := closedLoop(clients, d, env.seed, closedStart.Add(half))
		rt.add(rt0, readRuntime(), len(l1))
		t1 := time.Now()
		tr.on.Store(true)
		l2, e2 := closedLoop(clients, d, env.seed+1, t1.Add(half))
		t2 := time.Now()
		overhead = (float64(len(l1))/t1.Sub(closedStart).Seconds())/(float64(len(l2))/t2.Sub(t1).Seconds()) - 1
		// Latencies come from the untraced half alone.
		closedLat, closedErrs = l1, append(e1, e2...)
		r.attempted += len(l2)
	} else {
		closedLat, closedErrs = closedLoop(clients, d, env.seed, closedStart.Add(closedDur))
	}
	closedElapsed := time.Since(closedStart)
	r.rssEnd()
	for i := 0; i < 3; i++ {
		r.ref.sample()
	}
	r.attempted += len(closedLat) + len(closedErrs)
	r.failed += len(closedErrs)
	for _, e := range closedErrs {
		r.failf("serve-mix closed loop: %v", e)
		break
	}

	st, err := statsz(a)
	if err != nil {
		r.failf("serve-mix: %v", err)
	} else if err := checkServeStats(st, len(d.keys), len(cold)+len(coldErrs)); err != nil {
		r.failf("serve-mix: %v", err)
	}

	warmLat := make([]float64, len(warm))
	lag := make([]float64, len(warm))
	for i, s := range warm {
		warmLat[i] = ms(s.done.Sub(s.due))
		lag[i] = ms(s.send.Sub(s.due))
	}
	coldLat := make([]float64, len(cold))
	for i, s := range cold {
		coldLat[i] = ms(s.done.Sub(s.due))
	}
	if openOps > 0 {
		r.values["cpu_ms_per_op"] = ms(openCPU) / float64(openOps)
	}
	r.values["ops_per_s"] = float64(len(closedLat)) / closedElapsed.Seconds()
	r.values["latency_p50_ms"], r.values["latency.p99_ms"] = p50p99(closedLat)
	r.samples["latency"] = len(closedLat)
	r.samples["open_warm"] = len(warmLat)
	r.samples["cold"] = len(coldLat)

	if tr != nil {
		serveLayers(r, tr, d, st, warm, warmLat, coldLat, lag, openTimes, overhead)
		rt.report(r)
	}
	return r
}

// serveLayers reduces a traced serve-mix run to its layer metrics.
func serveLayers(r *report, tr *tracer, d *daemon, st serve.StatsJSON, warm []sent, warmLat, coldLat, lag, openTimes []float64, overhead float64) {
	h := d.handler
	h.mu.Lock()
	defer h.mu.Unlock()
	handler := map[string]time.Duration{}
	var warmUs []float64
	for _, x := range h.warm {
		handler[x.id] = x.dur
		warmUs = append(warmUs, float64(x.dur)/1e3)
	}
	var transport []float64
	var client, served time.Duration
	for _, s := range warm {
		if hd, ok := handler[s.id]; ok {
			rt := s.done.Sub(s.send)
			transport = append(transport, float64(rt-hd)/1e3)
			client += rt
			served += hd
		}
	}
	var coldMs, simMs, nonsim []float64
	for _, x := range h.cold {
		coldMs = append(coldMs, ms(x.dur))
		simMs = append(simMs, ms(x.sim))
		nonsim = append(nonsim, ms(x.dur-x.sim))
	}
	v := r.values
	v["serve.handler_warm_p50_us"], v["serve.handler_warm_p99_us"] = p50p99(warmUs)
	v["serve.transport_warm_us"] = stats.Median(transport)
	v["serve.handler_cold_ms"] = stats.Median(coldMs)
	v["serve.simulate_cold_ms"] = stats.Median(simMs)
	v["serve.cold_nonsim_ms"] = stats.Median(nonsim)
	v["serve.open_warm_p50_ms"], v["serve.open_warm_p99_ms"] = p50p99(warmLat)
	v["serve.cold_p50_ms"], v["serve.cold_p99_ms"] = p50p99(coldLat)
	v["serve.warm"] = float64(st.Warm)
	v["serve.coalesced"] = float64(st.Coalesced)
	v["serve.simulated"] = float64(st.Simulated)
	v["serve.shed"] = float64(st.Shed)
	if total := st.Warm + st.Coalesced + st.Simulated; total > 0 {
		v["serve.cache_hit_frac"] = float64(st.Warm) / float64(total)
	}
	_, v["loadgen.lag_p99_ms"] = p50p99(lag)
	s := st.Store
	v["resultstore.hits"] = float64(s.Hits)
	v["resultstore.misses"] = float64(s.Misses)
	v["resultstore.appended"] = float64(s.Appended)
	v["resultstore.loaded"] = float64(s.Loaded)
	v["resultstore.disk_bytes"] = float64(s.DiskBytes)

	// The traced units of serve-mix are its cold requests.
	tr.units = len(h.cold)
	tr.layerValues(r)
	// The daemon opens its store once, at boot.
	v["resultstore.open_ms"] = stats.Median(openTimes)
	r.layers = tr.table(overhead)
	r.trace = tr
	// A warm request's wall time is the client's round trip; the handler
	// span covers this share of it.
	r.layers.CoveredFrac = 0
	if client > 0 {
		r.layers.CoveredFrac = float64(served) / float64(client)
	}
	v["trace.overhead_frac"] = overhead
	v["trace.covered_frac"] = r.layers.CoveredFrac
}

// statsz fetches the daemon's counters.
func statsz(c *http.Client) (serve.StatsJSON, error) {
	var st serve.StatsJSON
	res, err := c.Get("http://pinservd/statsz")
	if err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	return st, nil
}
