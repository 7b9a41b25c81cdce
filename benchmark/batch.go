package main

// The three batch workloads: paper-cold, sweep-cold and replay-warm.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// runEnv is one run's settings.
type runEnv struct {
	seed    uint64
	seconds time.Duration
	workers int
	traced  bool
	// dir is the run's scratch directory for stores and sockets.
	dir string
}

// repeatSetup runs the golden check (when the spec asks for it) and
// prepare sp.setupReps times, records the median as setup_s, and keeps the
// last preparation; the earlier ones are cleaned up before the next starts.
func repeatSetup[T any](sp spec, env runEnv, r *report, prepare func(rep int) (T, func(), error)) (T, func(), error) {
	var times []float64
	var v T
	var cleanup func()
	for rep := 0; rep < sp.setupReps; rep++ {
		if cleanup != nil {
			cleanup()
			cleanup = nil
		}
		r.ref.sample()
		t0 := time.Now()
		if sp.golden {
			if err := goldenCheck(env.workers); err != nil {
				return v, nil, err
			}
		}
		var err error
		v, cleanup, err = prepare(rep)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return v, cleanup, err
		}
	}
	r.values["setup_s"] = stats.Median(times)
	r.samples["setup_s"] = len(times)
	return v, cleanup, nil
}

func noPrepare(int) (struct{}, func(), error) { return struct{}{}, nil, nil }

// figureTrials counts the trials behind a figure.
func figureTrials(fig experiments.Figure) int {
	n := 0
	for _, s := range fig.Series {
		for _, c := range s.Cells {
			n += c.Summary.N
		}
	}
	return n
}

// unitLoop runs units until the window has passed, at least once. In a
// traced run units alternate untraced and traced, starting untraced, and
// at least one of each runs.
func unitLoop(env runEnv, r *report, unit func(i int, traced bool) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		r.ref.maybe()
		if err := unit(i, env.traced && i%2 == 1); err != nil {
			return err
		}
		if (!env.traced || i >= 1) && time.Since(start) >= env.seconds {
			return nil
		}
	}
}

// paperCold runs the paper's figures at paper scale with no store, so
// every trial simulates: ~99% of it is machine.Run. The window cycles
// through the figures; each figure's median time is summed into the
// pass time, so a window that ends mid-pass biases nothing. A traced run
// measures one untraced and one traced pass, then probes the traced one.
func paperCold(sp spec, env runEnv) *report {
	r := newReport(env.workers, eventReference(env.workers))
	if _, _, err := repeatSetup(sp, env, r, noPrepare); err != nil {
		r.failf("setup: %v", err)
		return r
	}
	cfg := experiments.Config{Seed: env.seed, Quick: sp.paperQuick, Reps: sp.paperReps}
	var lat latencySink
	firstCfg, laterCfg, tracedCfg := cfg, cfg, cfg
	firstCfg.Executor = executor{workers: env.workers, lat: &lat}
	laterCfg.Executor = experiments.Pool{Workers: env.workers}
	var tr *tracer
	if env.traced {
		tr = newTracer()
		tracedCfg.Executor = executor{workers: env.workers, tr: tr}
	}

	first := map[string][]byte{}
	tracedFigs := map[string]experiments.Figure{}
	wall, cpu := map[string][]float64{}, map[string][]float64{}
	var passRender bytes.Buffer
	var untracedPass time.Duration
	var rt runtimeDelta
	trialsPerPass := 0
	start := time.Now()
passes:
	for pass := 0; ; pass++ {
		traced := env.traced && pass == 1
		t, c := (*tracer)(nil), laterCfg
		switch {
		case traced:
			t, c = tr, tracedCfg
		case pass == 0:
			c = firstCfg
		}
		t.beginUnit("pass")
		for _, name := range sp.paperFigures {
			if !env.traced && pass > 0 && time.Since(start) >= env.seconds {
				break passes
			}
			if !traced {
				r.ref.maybe()
			}
			var fig experiments.Figure
			if pass == 0 {
				r.rssBegin()
			}
			rt0, c0, t0 := readRuntime(), cpuTime(), time.Now()
			err := t.call(name, func() (err error) {
				fig, err = experiments.RunRegistered(name, c)
				return err
			})
			d, cd, rt1 := time.Since(t0), cpuTime()-c0, readRuntime()
			if pass == 0 {
				r.rssEnd()
			}
			if err != nil {
				r.attempted++
				r.failed++
				r.failf("paper-cold: %s: %v", name, err)
				continue
			}
			n := figureTrials(fig)
			r.attempted += n
			var buf bytes.Buffer
			t.step(lRender, "render", func() error { fig.RenderText(&buf); return nil })
			if prev, ok := first[name]; ok {
				if err := checkSameRender("paper-cold "+name, buf.Bytes(), prev); err != nil {
					r.failf("%v", err)
				}
			} else {
				first[name] = buf.Bytes()
			}
			if pass == 0 {
				passRender.Write(buf.Bytes())
				trialsPerPass += n
				untracedPass += d
			}
			if traced {
				tracedFigs[name] = fig
				continue
			}
			wall[name] = append(wall[name], d.Seconds())
			cpu[name] = append(cpu[name], cd.Seconds())
			rt.add(rt0, rt1, n)
		}
		t.endUnit()
		if traced || (!env.traced && time.Since(start) >= env.seconds) {
			break
		}
	}
	if sp.digest != "" && env.seed == goldenSeed && len(first) == len(sp.paperFigures) {
		if err := checkDigest(passRender.Bytes(), sp.digest); err != nil {
			r.failf("%v", err)
		}
	}

	var passWall, passCPU float64
	for _, name := range sp.paperFigures {
		passWall += stats.Median(wall[name])
		passCPU += stats.Median(cpu[name])
	}
	if passWall > 0 && trialsPerPass > 0 {
		r.values["ops_per_s"] = float64(trialsPerPass) / passWall
		r.values["cpu_ms_per_op"] = passCPU * 1e3 / float64(trialsPerPass)
	}
	r.values["latency_p50_ms"], r.values["latency.p99_ms"] = p50p99(lat.ms)
	r.samples["passes"] = len(wall[sp.paperFigures[0]])
	r.samples["latency"] = len(lat.ms)

	if env.traced {
		var cells []probeCell
		for _, name := range sp.paperFigures {
			fc, err := figureCells(name, tracedCfg, tracedFigs[name])
			if err != nil {
				r.failf("probe: %v", err)
			}
			cells = append(cells, fc...)
		}
		var st probeStats
		runProbe(cells, env.workers, r, &st)
		st.values(r)
		finishTrace(r, tr, float64(tr.unitWall)/float64(untracedPass)-1)
		rt.report(r)
	}
	return r
}

// finishTrace records the tracer's layer values and table.
func finishTrace(r *report, tr *tracer, overhead float64) {
	tr.layerValues(r)
	r.layers = tr.table(overhead)
	r.trace = tr
	r.values["trace.overhead_frac"] = overhead
	r.values["trace.covered_frac"] = r.layers.CoveredFrac
}

// storeValues records one store's counters per traced unit.
func storeValues(r *report, sum [5]float64, units int) {
	if units == 0 {
		return
	}
	for i, name := range []string{"resultstore.hits", "resultstore.misses", "resultstore.appended", "resultstore.loaded", "resultstore.disk_bytes"} {
		r.values[name] = sum[i] / float64(units)
	}
}

// storeSum adds a store's counters into sum, in storeValues' order.
func storeSum(sum *[5]float64, st experiments.TrialStore) {
	s := st.Stats()
	sum[0] += float64(s.Hits)
	sum[1] += float64(s.Misses)
	sum[2] += float64(s.Appended)
	sum[3] += float64(s.Loaded)
	sum[4] += float64(s.DiskBytes)
}

// storeConfig wires a store and the benchmark executor into cfg, with the
// tracing wrappers when t is set.
func storeConfig(cfg experiments.Config, store experiments.TrialStore, workers int, lat *latencySink, t *tracer) experiments.Config {
	cfg.Memo = store
	cfg.Executor = executor{workers: workers, lat: lat, tr: t, memo: true}
	if t != nil {
		cfg.Memo = tracedStore{TrialStore: store, tr: t}
	}
	return cfg
}

// sweepCold runs the sweep grid into a fresh disk store per pass: the
// write side of the store and deployment reuse, on trials ~40× smaller
// than paper-cold's.
func sweepCold(sp spec, env runEnv) *report {
	r := newReport(env.workers, eventReference(env.workers))
	if _, _, err := repeatSetup(sp, env, r, noPrepare); err != nil {
		r.failf("setup: %v", err)
		return r
	}
	trials := sp.sweepTrials()
	cfg := experiments.Config{Seed: env.seed, Quick: true}
	var lat latencySink
	var tr *tracer
	if env.traced {
		tr = newTracer()
	}
	var cpuTotal time.Duration
	var untraced, traced []float64
	var firstRender []byte
	var tracedRes *experiments.SweepResult
	var sums [5]float64
	var rt runtimeDelta
	err := unitLoop(env, r, func(i int, isTraced bool) error {
		t := (*tracer)(nil)
		var sink *latencySink
		if isTraced {
			t = tr
		} else {
			sink = &lat
		}
		dir := filepath.Join(env.dir, fmt.Sprintf("sweep-%d", i))
		r.rssBegin()
		rt0, c0, t0 := readRuntime(), cpuTime(), time.Now()
		t.beginUnit("pass")
		var store experiments.TrialStore
		err := t.step(lOpen, "OpenTrialStore", func() (err error) {
			store, err = experiments.OpenTrialStore(dir)
			return err
		})
		if err != nil {
			return err
		}
		var res *experiments.SweepResult
		err = t.call("Sweep", func() (err error) {
			res, err = experiments.Sweep(storeConfig(cfg, store, env.workers, sink, t), sp.sweep)
			return err
		})
		var buf bytes.Buffer
		if err == nil {
			t.step(lRender, "render", func() error { res.RenderText(&buf); return nil })
		}
		st := store.Stats()
		if isTraced {
			storeSum(&sums, store)
		}
		cerr := t.step(lClose, "Close", store.Close)
		t.endUnit()
		d, cd, rt1 := time.Since(t0), cpuTime()-c0, readRuntime()
		if !isTraced {
			r.rssEnd()
		}
		r.attempted += trials
		if err != nil {
			r.failed += trials
			return err
		}
		if cerr != nil {
			return cerr
		}

		reopened, err := experiments.OpenTrialStore(dir)
		if err != nil {
			return err
		}
		loaded := reopened.Stats().Loaded
		reopened.Close()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := checkColdStore(st, loaded, trials); err != nil {
			r.failf("sweep-cold pass %d: %v", i, err)
		}
		if firstRender == nil {
			firstRender = buf.Bytes()
		} else if err := checkSameRender("sweep-cold pass", buf.Bytes(), firstRender); err != nil {
			r.failf("%v", err)
		}
		if isTraced {
			traced = append(traced, d.Seconds())
			if tracedRes == nil {
				tracedRes = res
			}
			return nil
		}
		untraced = append(untraced, d.Seconds())
		cpuTotal += cd
		rt.add(rt0, rt1, trials)
		return nil
	})
	if err != nil {
		r.failf("sweep-cold: %v", err)
	}
	if w := stats.Median(untraced); w > 0 {
		r.values["ops_per_s"] = float64(trials) / w
		r.values["cpu_ms_per_op"] = ms(cpuTotal) / float64(trials*len(untraced))
	}
	r.values["latency_p50_ms"], r.values["latency.p99_ms"] = p50p99(lat.ms)
	r.samples["passes"] = len(untraced)
	r.samples["latency"] = len(lat.ms)

	if env.traced && tracedRes != nil {
		cells, err := sweepCells(cfg, tracedRes)
		if err != nil {
			r.failf("probe: %v", err)
		}
		var st probeStats
		runProbe(cells, env.workers, r, &st)
		st.values(r)
		storeValues(r, sums, tr.units)
		finishTrace(r, tr, stats.Median(traced)/stats.Median(untraced)-1)
		rt.report(r)
	}
	return r
}

// replayWarm replays a filled store: every replay opens the store, reruns
// the sweep and the quick figures with zero simulations, renders and
// closes — the warm rerun pinsim, pinsweep and pinhyp users pay.
func replayWarm(sp spec, env runEnv) *report {
	r := newReport(env.workers, aggregateReference())
	type prepared struct {
		dir    string
		render []byte
	}
	cfg := experiments.Config{Seed: env.seed, Quick: true}
	p, cleanup, err := repeatSetup(sp, env, r, func(rep int) (prepared, func(), error) {
		dir := filepath.Join(env.dir, fmt.Sprintf("replay-store-%d", rep))
		cleanup := func() { os.RemoveAll(dir) }
		store, err := experiments.OpenTrialStore(dir)
		if err != nil {
			return prepared{}, cleanup, err
		}
		render, _, _, err := replayOnce(sp, storeConfig(cfg, store, env.workers, nil, nil), nil)
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		return prepared{dir: dir, render: render}, cleanup, err
	})
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		r.failf("setup: %v", err)
		return r
	}

	var tr *tracer
	if env.traced {
		tr = newTracer()
	}
	var calls, untraced, traced []float64
	var cpuTotal time.Duration
	var sums [5]float64
	var rt runtimeDelta
	trialsPerReplay := 0
	err = unitLoop(env, r, func(i int, isTraced bool) error {
		t := (*tracer)(nil)
		if isTraced {
			t = tr
		}
		r.rssBegin()
		rt0, c0, t0 := readRuntime(), cpuTime(), time.Now()
		t.beginUnit("replay")
		var store experiments.TrialStore
		err := t.step(lOpen, "OpenTrialStore", func() (err error) {
			store, err = experiments.OpenTrialStore(p.dir)
			return err
		})
		if err != nil {
			return err
		}
		render, n, callTimes, err := replayOnce(sp, storeConfig(cfg, store, env.workers, nil, t), t)
		st := store.Stats()
		if isTraced {
			storeSum(&sums, store)
		}
		cerr := t.step(lClose, "Close", store.Close)
		t.endUnit()
		d, cd, rt1 := time.Since(t0), cpuTime()-c0, readRuntime()
		if !isTraced {
			r.rssEnd()
		}
		r.attempted += n
		if err != nil {
			r.failed += n
			return err
		}
		if cerr != nil {
			return cerr
		}
		if err := checkWarmStore(st); err != nil {
			r.failf("replay-warm replay %d: %v", i, err)
		}
		if err := checkSameRender("replay-warm replay", render, p.render); err != nil {
			r.failf("%v", err)
		}
		trialsPerReplay = n
		if isTraced {
			traced = append(traced, d.Seconds())
			return nil
		}
		untraced = append(untraced, d.Seconds())
		calls = append(calls, callTimes...)
		cpuTotal += cd
		rt.add(rt0, rt1, n)
		return nil
	})
	if err != nil {
		r.failf("replay-warm: %v", err)
	}
	if w := stats.Median(untraced); w > 0 && trialsPerReplay > 0 {
		r.values["ops_per_s"] = float64(trialsPerReplay) / w
		r.values["cpu_ms_per_op"] = ms(cpuTotal) / float64(trialsPerReplay*len(untraced))
	}
	r.values["latency_p50_ms"], r.values["latency.p99_ms"] = p50p99(calls)
	r.samples["replays"] = len(untraced)
	r.samples["latency"] = len(calls)
	if env.traced {
		storeValues(r, sums, tr.units)
		finishTrace(r, tr, stats.Median(traced)/stats.Median(untraced)-1)
		rt.report(r)
	}
	return r
}

// replayOnce runs the sweep and the replay figures through cfg and
// renders them all. It returns the bytes, the trial count and each call's
// time with its render, in milliseconds.
func replayOnce(sp spec, cfg experiments.Config, t *tracer) ([]byte, int, []float64, error) {
	var buf bytes.Buffer
	var calls []float64
	timed := func(name string, run func() error, render func()) error {
		t0 := time.Now()
		if err := t.call(name, run); err != nil {
			return err
		}
		t.step(lRender, "render", func() error { render(); return nil })
		calls = append(calls, ms(time.Since(t0)))
		return nil
	}
	n := sp.sweepTrials()
	var res *experiments.SweepResult
	err := timed("Sweep", func() (err error) {
		res, err = experiments.Sweep(cfg, sp.sweep)
		return err
	}, func() { res.RenderText(&buf) })
	if err != nil {
		return nil, n, nil, err
	}
	for _, name := range sp.replayFigures {
		var fig experiments.Figure
		err := timed(name, func() (err error) {
			fig, err = experiments.RunRegistered(name, cfg)
			return err
		}, func() { fig.RenderText(&buf) })
		if err != nil {
			return nil, n, nil, err
		}
		n += figureTrials(fig)
	}
	return buf.Bytes(), n, calls, nil
}
