package main

// Tracing from outside the program. Traced runs wrap the public seams —
// Config.Executor, Config.Memo, the experiment and render calls, and
// serve.Server.ServeHTTP — and keep spans in memory. Time is accounted in
// lanes: the benchmark's own goroutine is one lane, and while an Execute
// call fans trials out to k workers it owns k lanes. Every lane-nanosecond
// of a traced unit (a pass or a replay) lands in exactly one layer below,
// so the layers' self times add up to the unit's lane time, and what is
// left in "unit" is time no layer claims.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
)

const (
	lUnit      = iota // the unit's own time, outside every layer below
	lOpen             // OpenTrialStore
	lClose            // TrialStore.Close
	lAggregate        // an experiment call minus its Execute span: plan, aggregation
	lIdle             // Execute lanes with no trial running on them
	lTrial            // a trial minus its store call: trial key and closure
	lStore            // TrialStore.GetOrCompute minus its compute callback
	lSimulate         // the compute callback, or the whole trial without a store
	lRender           // Figure/SweepResult rendering
	numLayers
)

var layerNames = [numLayers]string{
	"unit", "resultstore.open", "resultstore.close", "experiments.aggregate",
	"experiments.idle", "experiments.trial", "resultstore.get_or_compute",
	"simulate", "render",
}

// maxFineSpans bounds the per-trial spans written to the trace file; the
// layer accounting covers every trial regardless.
const maxFineSpans = 20000

// span is one recorded interval. parent is -1 for a root; unit is the
// traced unit (pass, replay or request) it belongs to.
type span struct {
	name       string
	id, parent int32
	lane, unit int32
	start, end int64 // ns since the tracer's epoch
}

// tracer holds one traced run's spans and lane-time accounting. A nil
// *tracer is valid everywhere and records nothing.
type tracer struct {
	epoch time.Time
	// on gates the serve-mix wrappers, which stay installed while the
	// closed loop measures its untraced half.
	on atomic.Bool

	mu       sync.Mutex
	spans    []span
	fineLeft atomic.Int64
	lanes    map[*experiments.TrialContext]int32

	// parent is the span new Execute spans hang under: the running
	// experiment call, or the cold request being handled.
	parent atomic.Int32
	unitID int32
	// unitStart and unitChild track the open unit's wall and the time its
	// direct children (steps and calls) took.
	unitStart time.Time
	unitSpan  int32
	unitChild time.Duration

	lane     [numLayers]atomic.Int64
	execWall atomic.Int64
	units    int
	unitWall time.Duration

	trials, hits, misses atomic.Int64
	trialNs, storeNs     atomic.Int64
	hitNs, missSelfNs    atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), lanes: map[*experiments.TrialContext]int32{}}
	t.fineLeft.Store(maxFineSpans)
	t.parent.Store(-1)
	t.on.Store(true)
	return t
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record appends a finished span and returns its id.
func (t *tracer) record(name string, parent, lane int32, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, lane: lane,
		unit: t.unitID, start: t.ns(start), end: t.ns(end)})
	return id
}

// open appends a span whose end is set later by close.
func (t *tracer) open(name string, parent, lane int32, start time.Time) int32 {
	return t.record(name, parent, lane, start, start)
}

func (t *tracer) close(id int32, end time.Time) {
	t.mu.Lock()
	t.spans[id].end = t.ns(end)
	t.mu.Unlock()
}

// recordFine keeps a per-trial span while the budget lasts.
func (t *tracer) recordFine(name string, parent int32, tc *experiments.TrialContext, start, end time.Time) {
	if t.fineLeft.Add(-1) < 0 {
		return
	}
	t.mu.Lock()
	lane, ok := t.lanes[tc]
	if !ok {
		lane = int32(len(t.lanes) + 1)
		t.lanes[tc] = lane
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, lane: lane,
		unit: t.unitID, start: t.ns(start), end: t.ns(end)})
	t.mu.Unlock()
}

// beginUnit opens a traced unit (a pass or a replay).
func (t *tracer) beginUnit(name string) {
	if t == nil {
		return
	}
	t.unitStart = time.Now()
	t.unitChild = 0
	t.unitSpan = t.open(name, -1, 0, t.unitStart)
}

// endUnit closes the unit and charges its unclaimed time to lUnit.
func (t *tracer) endUnit() {
	if t == nil {
		return
	}
	end := time.Now()
	t.close(t.unitSpan, end)
	wall := end.Sub(t.unitStart)
	t.lane[lUnit].Add(int64(wall - t.unitChild))
	t.units++
	t.unitWall += wall
	t.unitID++
}

// step times fn as a direct child of the unit, charged to layer.
func (t *tracer) step(layer int, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	t.record(name, t.unitSpan, 0, start, end)
	d := end.Sub(start)
	t.lane[layer].Add(int64(d))
	t.unitChild += d
	return err
}

// call times an experiment call: its Execute spans hang under it, and the
// call's time outside them is aggregation.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	id := t.open(name, t.unitSpan, 0, start)
	t.parent.Store(id)
	exec0 := t.execWall.Load()
	err := fn()
	end := time.Now()
	t.close(id, end)
	t.parent.Store(-1)
	d := end.Sub(start)
	t.lane[lAggregate].Add(int64(d) - (t.execWall.Load() - exec0))
	t.unitChild += d
	return err
}

// latencySink collects per-trial wall times in milliseconds.
type latencySink struct {
	mu sync.Mutex
	ms []float64
}

func (s *latencySink) add(xs []float64) {
	s.mu.Lock()
	s.ms = append(s.ms, xs...)
	s.mu.Unlock()
}

// executor is the benchmark's Config.Executor: experiments.Pool, plus
// per-trial wall times when lat is set (the cold workloads' latency
// metric) and lane accounting when tr is set (traced runs). memo says the
// trials go through a TrialStore, whose wrapper splits the trial time.
type executor struct {
	workers int
	lat     *latencySink
	tr      *tracer
	memo    bool
}

// Execute implements experiments.Executor.
func (e executor) Execute(n int, run func(*experiments.TrialContext, int) error, progress func(int, int)) error {
	pool := experiments.Pool{Workers: e.workers}
	tr := e.tr
	if tr != nil && !tr.on.Load() {
		tr = nil
	}
	if e.lat == nil && tr == nil {
		return pool.Execute(n, run, progress)
	}
	var lat []float64
	if e.lat != nil {
		lat = make([]float64, n)
	}
	var trialNs atomic.Int64
	var execID int32
	start := time.Now()
	if tr != nil {
		execID = tr.open("experiments.Execute", tr.parent.Load(), 0, start)
	}
	err := pool.Execute(n, func(tc *experiments.TrialContext, i int) error {
		t0 := time.Now()
		err := run(tc, i)
		t1 := time.Now()
		d := t1.Sub(t0)
		if lat != nil {
			lat[i] = ms(d)
		}
		if tr != nil {
			trialNs.Add(int64(d))
			tr.recordFine("experiments.trial", execID, tc, t0, t1)
		}
		return err
	}, progress)
	end := time.Now()
	if lat != nil {
		e.lat.add(lat)
	}
	if tr != nil {
		tr.close(execID, end)
		wall := int64(end.Sub(start))
		lanes := int64(max(1, min(e.workers, n)))
		tr.execWall.Add(wall)
		tr.lane[lIdle].Add(lanes*wall - trialNs.Load())
		if e.memo {
			tr.lane[lTrial].Add(trialNs.Load())
		} else {
			tr.lane[lSimulate].Add(trialNs.Load())
		}
		tr.trials.Add(int64(n))
		tr.trialNs.Add(trialNs.Load())
	}
	return err
}

// tracedStore is the traced runs' Config.Memo: it times GetOrCompute and
// its compute callback separately, moving the store call's time out of
// the trial's own layer.
type tracedStore struct {
	experiments.TrialStore
	tr *tracer
}

// GetOrCompute implements experiments.TrialStore.
func (s tracedStore) GetOrCompute(key uint64, compute func() (experiments.TrialResult, error)) (experiments.TrialResult, error) {
	if !s.tr.on.Load() {
		return s.TrialStore.GetOrCompute(key, compute)
	}
	var computed time.Duration
	called := false
	t0 := time.Now()
	v, err := s.TrialStore.GetOrCompute(key, func() (experiments.TrialResult, error) {
		called = true
		c0 := time.Now()
		v, err := compute()
		computed = time.Since(c0)
		return v, err
	})
	g := time.Since(t0)
	tr := s.tr
	tr.lane[lTrial].Add(-int64(g))
	tr.lane[lStore].Add(int64(g - computed))
	tr.lane[lSimulate].Add(int64(computed))
	tr.storeNs.Add(int64(g))
	if called {
		tr.misses.Add(1)
		tr.missSelfNs.Add(int64(g - computed))
	} else {
		tr.hits.Add(1)
		tr.hitNs.Add(int64(g))
	}
	return v, err
}

// layerRow is one layer of a traced run's self-time table.
type layerRow struct {
	Name string `json:"name"`
	// SelfMs is lane time per traced unit; Share its part of all lane time.
	SelfMs float64 `json:"self_ms_per_unit"`
	Share  float64 `json:"share"`
}

// layerTable is one workload's entry in layers.json.
type layerTable struct {
	Units int `json:"units"`
	// UnitWallMs is the traced unit's wall time; LaneMs its lane time.
	UnitWallMs float64    `json:"unit_wall_ms"`
	LaneMs     float64    `json:"lane_ms_per_unit"`
	Layers     []layerRow `json:"layers"`
	// CoveredFrac is the share of lane time some layer below the unit
	// claims; OverheadFrac the traced unit's wall over the untraced one's,
	// minus 1.
	CoveredFrac  float64 `json:"covered_frac"`
	OverheadFrac float64 `json:"overhead_frac"`
}

// table reduces the lane accounting to per-unit self times.
func (t *tracer) table(overhead float64) *layerTable {
	units := max(1, t.units)
	lt := &layerTable{Units: t.units, UnitWallMs: ms(t.unitWall) / float64(units), OverheadFrac: overhead}
	var total int64
	for i := range t.lane {
		total += t.lane[i].Load()
	}
	for i := range t.lane {
		v := t.lane[i].Load()
		row := layerRow{Name: layerNames[i], SelfMs: float64(v) / 1e6 / float64(units)}
		if total > 0 {
			row.Share = float64(v) / float64(total)
		}
		lt.Layers = append(lt.Layers, row)
	}
	lt.LaneMs = float64(total) / 1e6 / float64(units)
	if total > 0 {
		lt.CoveredFrac = 1 - float64(t.lane[lUnit].Load())/float64(total)
	}
	return lt
}

// layerValues fills the experiments.* and resultstore timing metrics every
// batch workload shares.
func (t *tracer) layerValues(r *report) {
	units := float64(max(1, t.units))
	r.values["experiments.aggregate_ms"] = float64(t.lane[lAggregate].Load()) / 1e6 / units
	r.values["experiments.execute_ms"] = float64(t.execWall.Load()) / 1e6 / units
	r.values["resultstore.open_ms"] = float64(t.lane[lOpen].Load()) / 1e6 / units
	r.values["resultstore.close_ms"] = float64(t.lane[lClose].Load()) / 1e6 / units
	r.values["render.ms"] = float64(t.lane[lRender].Load()) / 1e6 / units
	if n := t.trials.Load(); n > 0 && t.storeNs.Load() > 0 {
		r.values["experiments.trial_overhead_us"] = float64(t.trialNs.Load()-t.storeNs.Load()) / 1e3 / float64(n)
	}
	if lanes := float64(t.lane[lIdle].Load() + t.trialNs.Load()); lanes > 0 {
		r.values["experiments.worker_idle_frac"] = float64(t.lane[lIdle].Load()) / lanes
	}
	if h := t.hits.Load(); h > 0 {
		r.values["resultstore.hit_us"] = float64(t.hitNs.Load()) / 1e3 / float64(h)
	}
	if m := t.misses.Load(); m > 0 {
		r.values["resultstore.miss_self_us"] = float64(t.missSelfNs.Load()) / 1e3 / float64(m)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "unit": s.unit},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
