package main

// The probe replays a pass's trials one layer at a time, through the same
// public entry points the experiment runner uses: platform.Pool.Deploy,
// workload.EnvFor and Spawn, machine.Run and Instance.Metric. Timing each
// call splits the simulate layer that the wrappers see as one block, and
// the machine's result carries the simulated statistics. The probe also
// proves it ran the same trials: every cell mean it computes must equal
// the figure's or sweep's cell mean bit for bit.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// probeTrial is one trial as the runner would execute it.
type probeTrial struct {
	host  *topology.Topology
	stack platform.Stack
	size  int
	ws    []workload.Workload
	memGB int
	seed  uint64
}

// probeCell is one aggregated cell: its trials, in repetition order, and
// the mean the experiment reported for it.
type probeCell struct {
	label  string
	trials []probeTrial
	want   float64
}

// probeStats accumulates the per-layer costs and simulated statistics.
type probeStats struct {
	trials, reused, events                int64
	deploy, spawn, run, metric            time.Duration
	switches, migrations, steals, wakeups uint64
	messages, ios, throttles              uint64
	cells, matched                        int
}

// figureCells lays out a registered figure's trials exactly as
// experiments.RunScenario does: series × cells × reps, each trial seeded
// by sim.Substream(seed, SeedTag..., series, cell, rep).
func figureCells(name string, cfg experiments.Config, fig experiments.Figure) ([]probeCell, error) {
	sc, ok := experiments.ScenarioByName(name)
	if !ok {
		return nil, experiments.UnknownScenarioError(name)
	}
	reps := cfg.Reps
	switch {
	case reps > 0:
	case cfg.Quick:
		reps = 2
	case sc.Reps > 0:
		reps = sc.Reps
	default:
		reps = 3
	}
	if len(fig.Series) != len(sc.Series) {
		return nil, fmt.Errorf("probe: %s has %d series, figure %d", name, len(sc.Series), len(fig.Series))
	}
	var out []probeCell
	for si, se := range sc.Series {
		stack := se.Stack
		if len(stack.Layers) == 0 && se.Platform != nil {
			stack = se.Platform.Stack()
		}
		var tenantWs []workload.Workload
		for _, tw := range se.TenantWorkloads {
			w, err := tw.Resolve(cfg.Quick)
			if err != nil {
				return nil, err
			}
			tenantWs = append(tenantWs, w)
		}
		if len(fig.Series[si].Cells) != len(sc.Cells) {
			return nil, fmt.Errorf("probe: %s series %d has %d cells, want %d", name, si, len(fig.Series[si].Cells), len(sc.Cells))
		}
		for ci, c := range sc.Cells {
			host, err := experiments.HostByName(c.Host)
			if err != nil {
				return nil, err
			}
			if host == nil {
				host = topology.PaperHost()
			}
			spec := c.Workload
			if spec == nil {
				spec = sc.Workload
			}
			w, err := spec.Resolve(cfg.Quick)
			if err != nil {
				return nil, err
			}
			ws := make([]workload.Workload, max(1, len(stack.Tenants)))
			for t := range ws {
				ws[t] = w
				if t < len(tenantWs) {
					ws[t] = tenantWs[t]
				}
			}
			cell := probeCell{label: fmt.Sprintf("%s %s %s", name, fig.Series[si].Label, c.Label),
				want: fig.Series[si].Cells[ci].Summary.Mean}
			for rep := 0; rep < reps; rep++ {
				parts := append(append([]uint64(nil), sc.SeedTag...), uint64(si), uint64(ci), uint64(rep))
				cell.trials = append(cell.trials, probeTrial{host: host, stack: stack, size: c.Cores,
					ws: ws, memGB: c.MemGB, seed: sim.Substream(cfg.Seed, parts...)})
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// sweepCells lays out a sweep's trials exactly as experiments.Sweep does:
// each cell's repetitions seeded from the cell's content.
func sweepCells(cfg experiments.Config, res *experiments.SweepResult) ([]probeCell, error) {
	var out []probeCell
	for _, c := range res.Cells {
		d, err := workload.NewDriver(c.Workload)
		if err != nil {
			return nil, err
		}
		if cfg.Quick {
			d = d.ScaleQuick()
		}
		cell := probeCell{label: fmt.Sprintf("sweep %s %s %dc", c.Platform, c.Workload, c.Cores), want: c.Summary.Mean}
		for rep := 0; rep < res.Spec.Reps; rep++ {
			seed := sim.Substream(cfg.Seed, 0x53_57, uint64(c.Spec.Kind), uint64(c.Spec.Mode),
				uint64(c.Cores), uint64(c.MemGB), workloadTag(c.Workload), uint64(rep))
			cell.trials = append(cell.trials, probeTrial{host: topology.PaperHost(), stack: c.Spec.Stack(),
				size: c.Cores, ws: []workload.Workload{d}, memGB: c.MemGB, seed: seed})
		}
		out = append(out, cell)
	}
	return out, nil
}

// workloadTag is the sweep's seed fold of a workload name.
func workloadTag(name string) uint64 {
	h := uint64(0)
	for i := 0; i < len(name); i++ {
		h = h*131 + uint64(name[i])
	}
	return h
}

// runProbe replays every trial of cells on workers goroutines, each with
// its own deployment pool, and checks every cell mean.
func runProbe(cells []probeCell, workers int, r *report, st *probeStats) {
	type job struct{ cell, rep int }
	var jobs []job
	metrics := make([][]float64, len(cells))
	for ci, c := range cells {
		metrics[ci] = make([]float64, len(c.trials))
		for rep := range c.trials {
			jobs = append(jobs, job{ci, rep})
		}
	}
	hv := hypervisor.DefaultParams()
	limit := 30 * 60 * sim.Second
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pool platform.Pool
			var local probeStats
			var firstErr error
			for {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					break
				}
				tr := cells[jobs[j].cell].trials[jobs[j].rep]
				v, err := probeOne(&pool, tr, hv, limit, &local)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				metrics[jobs[j].cell][jobs[j].rep] = v
			}
			mu.Lock()
			defer mu.Unlock()
			if firstErr != nil {
				r.failf("probe: %v", firstErr)
			}
			st.add(&local)
		}()
	}
	wg.Wait()
	for ci, c := range cells {
		st.cells++
		got := stats.Summarize(metrics[ci]).Mean
		if math.Float64bits(got) == math.Float64bits(c.want) {
			st.matched++
		} else {
			r.failf("probe: %s mean %v, experiment reported %v", c.label, got, c.want)
		}
	}
}

// probeOne runs one trial layer by layer, the way the runner's runStack
// does, and returns its metric.
func probeOne(pool *platform.Pool, tr probeTrial, hv hypervisor.Params, limit sim.Time, st *probeStats) (float64, error) {
	t0 := time.Now()
	d, reused, err := pool.Deploy(tr.stack, tr.size, machine.HostDefaults(tr.host, tr.seed), hv, tr.seed)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	if len(tr.ws) > 1 && len(tr.ws) != len(d.Tenants) {
		return 0, fmt.Errorf("%d workloads for %d tenants", len(tr.ws), len(d.Tenants))
	}
	insts := make([]workload.Instance, len(d.Tenants))
	for ti, slot := range d.Tenants {
		env := workload.EnvFor(d.M, slot.Group, slot.Affinity, slot.Cores)
		if tr.memGB > 0 {
			env.MemGB = tr.memGB
		}
		w := tr.ws[0]
		if len(tr.ws) > 1 {
			w = tr.ws[ti]
		}
		insts[ti] = w.Spawn(env)
	}
	t2 := time.Now()
	res := d.M.Run(limit)
	t3 := time.Now()
	v := limit.Seconds()
	if !res.TimedOut {
		var sum float64
		for _, inst := range insts {
			sum += inst.Metric(res)
		}
		v = sum / float64(len(insts))
	}
	t4 := time.Now()

	st.trials++
	if reused {
		st.reused++
	}
	st.events += int64(res.Events)
	st.deploy += t1.Sub(t0)
	st.spawn += t2.Sub(t1)
	st.run += t3.Sub(t2)
	st.metric += t4.Sub(t3)
	b := res.Breakdown
	st.switches += b.Switches
	st.migrations += b.Migrations
	st.steals += b.Steals
	st.wakeups += b.Wakeups
	st.messages += b.Messages
	st.ios += b.IOs
	st.throttles += b.Throttles
	return v, nil
}

func (st *probeStats) add(o *probeStats) {
	st.trials += o.trials
	st.reused += o.reused
	st.events += o.events
	st.deploy += o.deploy
	st.spawn += o.spawn
	st.run += o.run
	st.metric += o.metric
	st.switches += o.switches
	st.migrations += o.migrations
	st.steals += o.steals
	st.wakeups += o.wakeups
	st.messages += o.messages
	st.ios += o.ios
	st.throttles += o.throttles
}

// values reports the probe's per-trial layer costs and statistics.
func (st *probeStats) values(r *report) {
	if st.trials == 0 {
		return
	}
	n := float64(st.trials)
	r.values["platform.deploy_us"] = float64(st.deploy) / 1e3 / n
	r.values["platform.reuse_frac"] = float64(st.reused) / n
	r.values["workload.spawn_us"] = float64(st.spawn) / 1e3 / n
	r.values["workload.metric_us"] = float64(st.metric) / 1e3 / n
	r.values["machine.run_ms"] = float64(st.run) / 1e6 / n
	if st.events > 0 {
		r.values["machine.ns_per_event"] = float64(st.run) / float64(st.events)
	}
	r.values["sim.events_per_trial"] = float64(st.events) / n
	r.values["sched.switches_per_trial"] = float64(st.switches) / n
	r.values["sched.migrations_per_trial"] = float64(st.migrations) / n
	r.values["sched.steals_per_trial"] = float64(st.steals) / n
	r.values["sched.wakeups_per_trial"] = float64(st.wakeups) / n
	r.values["sched.messages_per_trial"] = float64(st.messages) / n
	r.values["irqsim.ios_per_trial"] = float64(st.ios) / n
	r.values["cgroups.throttles_per_trial"] = float64(st.throttles) / n
	if st.cells > 0 {
		r.values["probe.coverage_frac"] = float64(st.matched) / float64(st.cells)
	}
}
