package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// newTestServer returns a quick-mode server with a tight simulation bound
// so tests exercise admission deterministically.
func newTestServer(t *testing.T, o Options) *Server {
	t.Helper()
	o.Config.Quick = true
	o.Config.Reps = 2
	o.Config.Seed = 42
	o.Config.Executor = experiments.Pool{Workers: 1}
	return NewServer(o)
}

func post(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestRunColdThenWarm: the first ask simulates, the second is served from
// the response cache byte-identically — provenance only in the header.
func TestRunColdThenWarm(t *testing.T) {
	s := newTestServer(t, Options{})
	const body = `{"name":"fig3"}`

	cold := post(t, s, body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body.String())
	}
	if src := cold.Header().Get(SourceHeader); src != "simulated" {
		t.Fatalf("cold source = %q, want simulated", src)
	}
	var resp RunResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "fig3" || len(resp.Series) == 0 || len(resp.XLabels) == 0 {
		t.Fatalf("thin response: %+v", resp)
	}

	warm := post(t, s, body)
	if warm.Code != http.StatusOK || warm.Header().Get(SourceHeader) != "warm" {
		t.Fatalf("warm: %d source=%q", warm.Code, warm.Header().Get(SourceHeader))
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("warm body differs from cold body")
	}
	if s.warm.Load() != 1 || s.simulated.Load() != 1 {
		t.Fatalf("warm=%d simulated=%d, want 1/1", s.warm.Load(), s.simulated.Load())
	}
}

// TestWarmBodyHasContentLength: a warm body over net/http's 2 KB write
// buffer goes out with its exact Content-Length, not chunked.
func TestWarmBodyHasContentLength(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Options{}))
	defer srv.Close()
	run := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/run", "application/json", strings.NewReader(`{"name":"fig3"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp, body
	}
	run()
	resp, body := run()
	if src := resp.Header.Get(SourceHeader); src != "warm" {
		t.Fatalf("second request source = %q, want warm", src)
	}
	if len(body) <= 2048 {
		t.Fatalf("fig3 body is %d bytes, want one over the 2 KB write buffer", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body, want %d and none",
			resp.ContentLength, resp.TransferEncoding, len(body), len(body))
	}
}

// TestCoalescing is the tentpole invariant: N concurrent identical cold
// requests run exactly one simulation — asserted both on the server's
// counter and on the trial store's miss count (misses = trials actually
// simulated; a second figure run would double it).
func TestCoalescing(t *testing.T) {
	st := experiments.NewTrialMemo()
	s := newTestServer(t, Options{Config: experiments.Config{Memo: st}})

	var runs atomic.Int32
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	realRun := s.run
	s.run = func(cfg experiments.Config, sc experiments.Scenario) (experiments.Figure, error) {
		runs.Add(1)
		entered <- struct{}{}
		<-release // hold the flight open until every request has arrived
		return realRun(cfg, sc)
	}

	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	sources := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, `{"name":"fig3"}`)
			codes[i], sources[i] = w.Code, w.Header().Get(SourceHeader)
		}(i)
	}
	<-entered // a leader is inside the simulation
	for s.sf.Coalesced() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("simulation ran %d times for %d concurrent requests, want 1", got, n)
	}
	var simulated, coalesced int
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: %d", i, codes[i])
		}
		switch sources[i] {
		case "simulated":
			simulated++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("request %d: source %q", i, sources[i])
		}
	}
	if simulated != 1 || coalesced != n-1 {
		t.Fatalf("sources: %d simulated / %d coalesced, want 1/%d", simulated, coalesced, n-1)
	}
	// The store's misses count trials actually simulated: a second figure
	// run would have doubled it. One quick fig3 run = series×cells×reps
	// misses, all from the single leader.
	if st.Stats().Hits != 0 {
		t.Fatalf("store hits = %d, want 0 (every trial simulated once)", st.Stats().Hits)
	}
	missesAfterOne := st.Stats().Misses
	if missesAfterOne == 0 {
		t.Fatal("store recorded no trial misses")
	}
	// A fresh identical request must now be warm — zero new store traffic.
	if w := post(t, s, `{"name":"fig3"}`); w.Header().Get(SourceHeader) != "warm" {
		t.Fatalf("post-flight source = %q", w.Header().Get(SourceHeader))
	}
	if st.Stats().Misses != missesAfterOne {
		t.Fatal("warm request touched the trial store")
	}
}

// TestBackpressure: with one simulation slot and no queue, a second cold
// key sheds with 429 + Retry-After while warm keys keep serving; the slot
// freeing up restores cold service.
func TestBackpressure(t *testing.T) {
	s := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 1})
	// MaxQueue can't be 0 via Options (0 means default); squeeze it here.
	s.maxQueue = 0

	// Warm one key through the real engine first.
	if w := post(t, s, `{"name":"fig3"}`); w.Code != http.StatusOK {
		t.Fatalf("prewarm: %d %s", w.Code, w.Body.String())
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	realRun := s.run
	s.run = func(cfg experiments.Config, sc experiments.Scenario) (experiments.Figure, error) {
		once.Do(func() { close(entered) })
		<-release
		return realRun(cfg, sc)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if w := post(t, s, `{"name":"fig4"}`); w.Code != http.StatusOK {
			t.Errorf("blocked leader finished %d: %s", w.Code, w.Body.String())
		}
	}()
	<-entered // the only slot is now held

	shed := post(t, s, `{"name":"fig5"}`)
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("second cold key: %d, want 429", shed.Code)
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Warm keys must be untouched by the saturation.
	warm := post(t, s, `{"name":"fig3"}`)
	if warm.Code != http.StatusOK || warm.Header().Get(SourceHeader) != "warm" {
		t.Fatalf("warm under saturation: %d source=%q", warm.Code, warm.Header().Get(SourceHeader))
	}

	close(release)
	wg.Wait()
	if s.shed.Load() != 1 {
		t.Fatalf("shed = %d, want 1", s.shed.Load())
	}
	// Capacity is free again: the shed key now simulates.
	if w := post(t, s, `{"name":"fig5"}`); w.Code != http.StatusOK {
		t.Fatalf("after release: %d %s", w.Code, w.Body.String())
	}
}

// TestCancelledQueuedLeader: a singleflight leader whose request ends
// while it waits for a simulation slot leaves the queue and gives its
// place back without counting as shed, so a later cold request is
// admitted; and a follower coalesced on such a leader asks again and gets
// its figure.
func TestCancelledQueuedLeader(t *testing.T) {
	s := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 1})
	// A fig4 run holds the only slot until the test closes its gate.
	gates := make(chan chan struct{})
	realRun := s.run
	s.run = func(cfg experiments.Config, sc experiments.Scenario) (experiments.Figure, error) {
		if sc.Name == "fig4" {
			gate := make(chan struct{})
			gates <- gate
			<-gate
		}
		return realRun(cfg, sc)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	var wg sync.WaitGroup
	postAsync := func(ctx context.Context, body string, code *int, source *string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)).WithContext(ctx))
			*code, *source = w.Code, w.Header().Get(SourceHeader)
		}()
	}
	// holdSlot starts a cold fig4 request and returns once it holds the
	// slot, with the gate that releases it.
	holdSlot := func(body string, code *int) chan struct{} {
		var source string
		postAsync(context.Background(), body, code, &source)
		return <-gates
	}

	// A queued leader's request ends: its place frees for a later request.
	var holdCode, leaderCode, laterCode int
	var leaderSrc, laterSrc string
	gate := holdSlot(`{"name":"fig4"}`, &holdCode)
	ctx, cancel := context.WithCancel(context.Background())
	postAsync(ctx, `{"name":"fig5"}`, &leaderCode, &leaderSrc)
	waitFor("the leader to queue", func() bool { return s.queued.Load() == 2 })
	cancel()
	waitFor("the leader to leave the queue", func() bool { return s.queued.Load() == 1 })
	postAsync(context.Background(), `{"name":"fig6"}`, &laterCode, &laterSrc)
	waitFor("the later request to queue", func() bool { return s.queued.Load() == 2 })
	close(gate)
	wg.Wait()
	if holdCode != http.StatusOK || laterCode != http.StatusOK || laterSrc != "simulated" {
		t.Fatalf("slot holder %d, later request %d %q; want 200 and a simulated 200", holdCode, laterCode, laterSrc)
	}
	if leaderCode == http.StatusOK || leaderCode == http.StatusTooManyRequests {
		t.Fatalf("cancelled leader answered %d, want neither a figure nor a shed", leaderCode)
	}

	// A follower coalesced on a leader whose request ends still gets 200.
	var followerCode int
	var followerSrc string
	gate = holdSlot(`{"name":"fig4","seed":7}`, &holdCode)
	ctx, cancel = context.WithCancel(context.Background())
	postAsync(ctx, `{"name":"fig7"}`, &leaderCode, &leaderSrc)
	waitFor("the leader to queue", func() bool { return s.queued.Load() == 2 })
	coalesced := s.sf.Coalesced()
	postAsync(context.Background(), `{"name":"fig7"}`, &followerCode, &followerSrc)
	waitFor("the follower to coalesce", func() bool { return s.sf.Coalesced() > coalesced })
	cancel()
	waitFor("the follower to lead and queue again", func() bool { return s.sf.Leads() == 6 && s.queued.Load() == 2 })
	close(gate)
	wg.Wait()
	if followerCode != http.StatusOK || followerSrc != "simulated" {
		t.Fatalf("follower of a cancelled leader: %d %q, want a simulated 200", followerCode, followerSrc)
	}
	if shed := s.shed.Load(); shed != 0 {
		t.Fatalf("shed = %d, want 0 (a cancelled waiter is not a shed)", shed)
	}
}

// badRequests are /run bodies that must 400; FuzzRunRequest seeds its
// corpus with them too.
var badRequests = []struct{ name, body string }{
	{"empty", `{}`},
	{"both", `{"name":"fig3","scenario":{"name":"x"}}`},
	{"unknown field", `{"name":"fig3","bogus":1}`},
	{"unknown scenario", `{"name":"no-such-fig"}`},
	{"negative reps", `{"name":"fig3","reps":-1}`},
	{"invalid cells", `{"name":"fig3","cells":[{"label":"bad","cores":0}]}`},
	{"unknown ablation", `{"scenario":{"name":"x","workload":{"driver":"ffmpeg"},` +
		`"series":[{"platform":{"kind":"CN","mode":"Pinned"},"ablate":["no-such-mechanism"]}],` +
		`"cells":[{"label":"large","cores":2}]}}`},
}

// TestBadRequests: structural failures 400 before simulating; unknown
// scenario names 400 on the cold path.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, tc := range badRequests {
		if w := post(t, s, tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}
	oversize := `{"name":"fig3"` + strings.Repeat(" ", maxRunBody) + `}`
	if w := post(t, s, oversize); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: %d, want 413 (%.200s)", w.Code, w.Body.String())
	}
	if s.simulated.Load() != 0 {
		t.Fatalf("bad requests triggered %d simulations", s.simulated.Load())
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/run", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: %d, want 405", w.Code)
	}
}

// TestObservabilityEndpoints: /healthz and /statsz expose the serving and
// store counters the CI gates read.
func TestObservabilityEndpoints(t *testing.T) {
	s := newTestServer(t, Options{})
	post(t, s, `{"name":"fig3"}`)
	post(t, s, `{"name":"fig3"}`)

	var h HealthJSON
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Degraded {
		t.Fatalf("health = %+v", h)
	}

	var st StatsJSON
	if err := json.Unmarshal(get(t, s, "/statsz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Simulated != 1 || st.Warm != 1 || st.Responses != 1 {
		t.Fatalf("stats = %+v, want 1 simulated / 1 warm / 1 cached", st)
	}
	if st.Store.Misses == 0 {
		t.Fatal("statsz store snapshot missing trial misses")
	}

	var scs []ScenarioJSON
	if err := json.Unmarshal(get(t, s, "/scenarios").Body.Bytes(), &scs); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sc := range scs {
		if sc.Name == "fig3" && sc.Fingerprint != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/scenarios missing fig3: %+v", scs)
	}
}

// TestRecommendation: a figure with platform series yields a ranked
// recommendation; pinning can be constrained away.
func TestRecommendation(t *testing.T) {
	s := newTestServer(t, Options{})
	w := post(t, s, `{"name":"fig3","recommend":{}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("%d %s", w.Code, w.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	rec := resp.Recommendation
	if rec == nil {
		t.Fatalf("no recommendation (note: %q)", resp.RecommendationNote)
	}
	if rec.Class != "cpu-bound" || rec.Platform == "" || rec.Mode == "" || len(rec.Ranked) == 0 {
		t.Fatalf("recommendation = %+v", rec)
	}
	if rec.CHR <= 0 || rec.CHR > 1 {
		t.Fatalf("CHR = %v", rec.CHR)
	}

	noPin := post(t, s, `{"name":"fig3","recommend":{"allow_pinning":false}}`)
	var respNP RunResponse
	if err := json.Unmarshal(noPin.Body.Bytes(), &respNP); err != nil {
		t.Fatal(err)
	}
	if respNP.Recommendation == nil {
		t.Fatalf("no unpinned recommendation (note: %q)", respNP.RecommendationNote)
	}
	for _, c := range respNP.Recommendation.Ranked {
		if c.Mode == "Pinned" {
			t.Fatalf("allow_pinning=false ranked a pinned mode: %+v", respNP.Recommendation.Ranked)
		}
	}
}

// TestCellOverridesAndInlineScenario: replacement cells re-key the cache,
// and an inline spec runs without touching the registry.
func TestCellOverridesAndInlineScenario(t *testing.T) {
	s := newTestServer(t, Options{})
	base := post(t, s, `{"name":"fig3"}`)
	small := post(t, s, `{"name":"fig3","cells":[{"label":"2xlarge","cores":16}]}`)
	if small.Code != http.StatusOK {
		t.Fatalf("cells override: %d %s", small.Code, small.Body.String())
	}
	if small.Header().Get(SourceHeader) != "simulated" {
		t.Fatal("cell override shared the base key")
	}
	var resp RunResponse
	if err := json.Unmarshal(small.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.XLabels) != 1 || resp.XLabels[0] != "2xlarge" {
		t.Fatalf("override xlabels = %v", resp.XLabels)
	}
	if bytes.Equal(base.Body.Bytes(), small.Body.Bytes()) {
		t.Fatal("override body identical to base")
	}

	inline := fmt.Sprintf(`{"scenario":%s}`, inlineSpec)
	w := post(t, s, inline)
	if w.Code != http.StatusOK {
		t.Fatalf("inline: %d %s", w.Code, w.Body.String())
	}
	var ir RunResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Name != "inline-smoke" || ir.Fingerprint == "" {
		t.Fatalf("inline response = %+v", ir)
	}
}

// inlineSpec is a minimal valid scenario: one platform series, one cell.
const inlineSpec = `{
  "name": "inline-smoke",
  "workload": {"driver": "ffmpeg"},
  "series": [{"platform": {"kind": "BM", "mode": "Vanilla"}}],
  "cells": [{"label": "large", "cores": 2}]
}`

// ablatedInlineSpec is inlineSpec with its one series ablated.
var ablatedInlineSpec = strings.Replace(inlineSpec, `"mode": "Vanilla"}`, `"mode": "Vanilla"}, "ablate": ["numa"]`, 1)

// TestInlineAblationRekeys: two inline scenarios that differ only in a
// series' "ablate" list are different requests — different cache keys, and
// the ablated one simulates instead of replaying the unablated response.
func TestInlineAblationRekeys(t *testing.T) {
	var plain, abl RunRequest
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"scenario":%s}`, inlineSpec)), &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"scenario":%s}`, ablatedInlineSpec)), &abl); err != nil {
		t.Fatal(err)
	}
	if abl.Scenario.Series[0].Ablate == 0 {
		t.Fatalf("ablated spec decoded without an ablation: %s", ablatedInlineSpec)
	}
	if plain.key(true, 2, 42) == abl.key(true, 2, 42) {
		t.Fatal("ablation did not re-key the response cache")
	}
	s := newTestServer(t, Options{})
	if w := post(t, s, fmt.Sprintf(`{"scenario":%s}`, inlineSpec)); w.Code != http.StatusOK {
		t.Fatalf("plain: %d %s", w.Code, w.Body.String())
	}
	w := post(t, s, fmt.Sprintf(`{"scenario":%s}`, ablatedInlineSpec))
	if w.Code != http.StatusOK || w.Header().Get(SourceHeader) != "simulated" {
		t.Fatalf("ablated: %d source %q, want 200 simulated", w.Code, w.Header().Get(SourceHeader))
	}
}

// TestRequestKeyStability: the key is a pure function of request fields —
// same request same key, any material field change a different key.
func TestRequestKeyStability(t *testing.T) {
	base := RunRequest{Name: "fig3"}
	k := base.key(true, 2, 42)
	if base.key(true, 2, 42) != k {
		t.Fatal("key not deterministic")
	}
	seed := uint64(7)
	pin := false
	for name, alt := range map[string]RunRequest{
		"name":      {Name: "fig4"},
		"reps":      {Name: "fig3", Reps: 5},
		"seed":      {Name: "fig3", Seed: &seed},
		"cells":     {Name: "fig3", Cells: []experiments.ScenarioCell{{Label: "x", Cores: 4}}},
		"recommend": {Name: "fig3", Recommend: &RecommendSpec{AllowPinning: &pin}},
	} {
		if alt.key(true, 2, 42) == k {
			t.Errorf("%s change did not re-key", name)
		}
	}
	if base.key(false, 2, 42) == k || base.key(true, 3, 42) == k || base.key(true, 2, 43) == k {
		t.Error("server-default change did not re-key")
	}
}
