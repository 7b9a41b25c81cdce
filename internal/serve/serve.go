// Package serve is pinservd's engine: an always-on HTTP/JSON
// pinning-advisor built from the repo's three concurrency layers.
//
//   - Warm path: a sharded response cache (cache.Memo of marshaled bodies)
//     answers repeated questions with one hash and one shard read — no
//     locks shared with cold work, no queueing behind simulations.
//   - Cold path: a singleflight group coalesces identical in-flight
//     requests, so a thundering herd on one new key costs exactly one
//     simulation; everyone else waits on the leader and shares its bytes.
//   - Admission: a bounded semaphore caps concurrent simulations and a
//     bounded queue caps waiters; beyond that the daemon sheds load with
//     429 + Retry-After instead of collapsing. Warm requests never touch
//     the semaphore.
//
// The trial store underneath (Config.Memo, typically disk-backed) makes
// all of this durable: a re-asked scenario after restart replays trials
// from segments instead of simulating.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/singleflight"
	"repro/internal/topology"
)

// SourceHeader is the per-response provenance header: "warm" (response
// cache), "coalesced" (shared an in-flight computation) or "simulated"
// (this request ran the figure).
const SourceHeader = "X-Pinserv-Source"

// maxRunBody caps a /run request body. Real specs are about 1 KB; the cap
// only stops one client from streaming an unbounded inline scenario into
// memory.
const maxRunBody = 1 << 20

// errOverloaded is the admission rejection; the handler maps it to 429.
var errOverloaded = errors.New("serve: simulation capacity saturated")

// errLeaderGone is what a singleflight leader returns when its request
// ends while it waits for a simulation slot. Followers coalesced on it
// retry; the leader's own client is gone.
var errLeaderGone = errors.New("serve: request ended while queued for a simulation slot")

// badRequestError marks failures caused by the request itself (unknown
// scenario, invalid spec); the handler maps them to 400.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// Options configures a Server.
type Options struct {
	// Config is the run template: Quick/Reps/Seed/Host/Executor defaults and
	// the shared trial store (Memo). A nil Memo is replaced with a fresh
	// in-memory store so the daemon always memoizes across requests.
	Config experiments.Config
	// MaxInflight bounds concurrently running simulations (singleflight
	// leaders that passed admission). 0 = GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds cold requests waiting for a simulation slot; beyond
	// MaxInflight+MaxQueue the daemon sheds with 429. 0 = 2*MaxInflight.
	MaxQueue int
	// RetryAfter is the 429 Retry-After hint. 0 = 1s.
	RetryAfter time.Duration
}

// Server is the daemon's http.Handler. Create with NewServer.
type Server struct {
	cfg  experiments.Config
	host *topology.Topology
	// run is the figure engine; a seam so tests can block or count
	// simulations without simulating.
	run func(experiments.Config, experiments.Scenario) (experiments.Figure, error)

	resp *cache.Memo[[]byte]
	sf   singleflight.Group[[]byte]

	maxInflight, maxQueue int
	sem                   chan struct{}
	queued                atomic.Int64
	retryAfter            string

	warm, coalesced, simulated, shed atomic.Uint64

	start time.Time
	mux   *http.ServeMux
}

// NewServer builds the daemon around cfg's trial store and run defaults.
func NewServer(o Options) *Server {
	if o.MaxInflight <= 0 {
		o.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 2 * o.MaxInflight
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Config.Memo == nil {
		o.Config.Memo = experiments.NewTrialMemo()
	}
	host := o.Config.Host
	if host == nil {
		host = topology.PaperHost()
	}
	s := &Server{
		cfg:         o.Config,
		host:        host,
		run:         experiments.RunScenario,
		resp:        cache.NewMemo[[]byte](),
		maxInflight: o.MaxInflight,
		maxQueue:    o.MaxQueue,
		sem:         make(chan struct{}, o.MaxInflight),
		retryAfter:  fmt.Sprintf("%d", int((o.RetryAfter+time.Second-1)/time.Second)),
		start:       time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/scenarios", s.handleScenarios)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Store exposes the shared trial store (for -v stats and Close at exit).
func (s *Server) Store() experiments.TrialStore { return s.cfg.Memo }

// handleRun is the advisor endpoint. The warm path — parse, key, one
// sharded read, write — shares no lock with the cold path, so warm
// responses keep flowing at full rate while every simulation slot is busy.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "serve: request JSON: "+err.Error(), code)
		return
	}
	if err := req.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := req.key(s.cfg.Quick, s.cfg.Reps, s.cfg.Seed)
	if body, ok := s.resp.Get(key); ok {
		s.warm.Add(1)
		writeBody(w, "warm", body)
		return
	}
	ctx := r.Context()
	lead := func() ([]byte, error) {
		if err := s.admit(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		return s.compute(req, key)
	}
	body, shared, err := s.sf.Do(key, lead)
	// A follower whose leader's request ended in the queue asks again
	// while its own client is still there: it becomes the leader or
	// coalesces on a newer one.
	for shared && errors.Is(err, errLeaderGone) && ctx.Err() == nil {
		body, shared, err = s.sf.Do(key, lead)
	}
	switch {
	case errors.Is(err, errOverloaded):
		s.shed.Add(1)
		w.Header().Set("Retry-After", s.retryAfter)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, errLeaderGone):
		// This request's own client is gone; nobody reads the reply.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		var bad badRequestError
		if errors.As(err, &bad) {
			http.Error(w, err.Error(), http.StatusBadRequest)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case shared:
		s.coalesced.Add(1)
		writeBody(w, "coalesced", body)
	default:
		writeBody(w, "simulated", body)
	}
}

// writeBody sends a complete response body. Its Content-Length is set up
// front: without it net/http chunks any body larger than its 2 KB write
// buffer, and most figure bodies are larger.
func writeBody(w http.ResponseWriter, source string, body []byte) {
	h := w.Header()
	h.Set(SourceHeader, source)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// admit claims a simulation slot, queueing at most maxQueue waiters.
// errOverloaded means the caller must shed. A waiter whose request ends
// before a slot frees leaves the queue, gives its place back and returns
// errLeaderGone, which is not a shed. Only singleflight leaders call this,
// so the semaphore bounds simulations, not requests.
func (s *Server) admit(ctx context.Context) error {
	if n := s.queued.Add(1); n > int64(s.maxInflight+s.maxQueue) {
		s.queued.Add(-1)
		return errOverloaded
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return errLeaderGone
	}
}

func (s *Server) release() {
	<-s.sem
	s.queued.Add(-1)
}

// compute is the cold path body, run by exactly one singleflight leader
// per key: resolve, simulate, render, publish to the response cache.
func (s *Server) compute(req RunRequest, key uint64) ([]byte, error) {
	sc, err := s.resolve(req)
	if err != nil {
		return nil, badRequestError{err}
	}
	cfg := s.cfg
	if req.Reps > 0 {
		cfg.Reps = req.Reps
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	s.simulated.Add(1)
	fig, err := s.run(cfg, sc)
	if err != nil {
		return nil, err
	}
	body, err := s.buildResponse(req, sc, cfg, fig)
	if err != nil {
		return nil, err
	}
	s.resp.Put(key, body)
	return body, nil
}

// resolve materializes the request's scenario: registry lookup or inline
// spec, then the optional cell replacement, then validation.
func (s *Server) resolve(req RunRequest) (experiments.Scenario, error) {
	var sc experiments.Scenario
	if req.Name != "" {
		var ok bool
		if sc, ok = experiments.ScenarioByName(req.Name); !ok {
			return experiments.Scenario{}, experiments.UnknownScenarioError(req.Name)
		}
	} else {
		sc = *req.Scenario
	}
	if len(req.Cells) > 0 {
		sc.Cells = req.Cells
	}
	if err := sc.Validate(); err != nil {
		return experiments.Scenario{}, err
	}
	return sc, nil
}

// HealthJSON is the GET /healthz body.
type HealthJSON struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	Degraded bool    `json:"degraded"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Memo.Stats()
	writeJSON(w, HealthJSON{Status: "ok", UptimeS: time.Since(s.start).Seconds(), Degraded: st.Degraded})
}

// StatsJSON is the GET /statsz body: serving counters plus the trial
// store's audit snapshot. "simulated" counts figure computations actually
// started — the number the coalescing gate asserts is 1 under a herd.
type StatsJSON struct {
	Warm      uint64            `json:"warm"`
	Coalesced uint64            `json:"coalesced"`
	Simulated uint64            `json:"simulated"`
	Shed      uint64            `json:"shed"`
	InFlight  int               `json:"in_flight"`
	Responses int               `json:"responses_cached"`
	Store     resultstore.Stats `json:"store"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, StatsJSON{
		Warm:      s.warm.Load(),
		Coalesced: s.coalesced.Load(),
		Simulated: s.simulated.Load(),
		Shed:      s.shed.Load(),
		InFlight:  s.sf.InFlight(),
		Responses: s.resp.Len(),
		Store:     s.cfg.Memo.Stats(),
	})
}

// ScenarioJSON is one GET /scenarios entry.
type ScenarioJSON struct {
	Name        string `json:"name"`
	Title       string `json:"title,omitempty"`
	Description string `json:"description,omitempty"`
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	out := []ScenarioJSON{}
	for _, sc := range experiments.Scenarios() {
		out = append(out, ScenarioJSON{
			Name: sc.Name, Title: sc.Title, Description: sc.Description,
			Fingerprint: sc.Fingerprint(),
		})
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
