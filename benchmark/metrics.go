package main

// Metric names and units, the result line, and the process-level
// measurements (CPU time, peak RSS, runtime/metrics) every workload takes.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
}

// e2eMetrics are reported by every untraced run of every workload. An "op"
// is a trial on paper-cold, sweep-cold and replay-warm and a request on
// serve-mix; see README.md for each workload's latency unit.
var e2eMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are reported by every traced run of every workload; a layer
// the workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"experiments.aggregate_ms", "ms"},
	{"experiments.execute_ms", "ms"},
	{"experiments.trial_overhead_us", "us"},
	{"experiments.worker_idle_frac", "fraction"},
	{"resultstore.open_ms", "ms"},
	{"resultstore.close_ms", "ms"},
	{"resultstore.hit_us", "us"},
	{"resultstore.miss_self_us", "us"},
	{"resultstore.hits", "count"},
	{"resultstore.misses", "count"},
	{"resultstore.appended", "count"},
	{"resultstore.loaded", "count"},
	{"resultstore.disk_bytes", "bytes"},
	{"render.ms", "ms"},
	{"platform.deploy_us", "us"},
	{"platform.reuse_frac", "fraction"},
	{"workload.spawn_us", "us"},
	{"workload.metric_us", "us"},
	{"machine.run_ms", "ms"},
	{"machine.ns_per_event", "ns"},
	{"sim.events_per_trial", "count"},
	{"sched.switches_per_trial", "count"},
	{"sched.migrations_per_trial", "count"},
	{"sched.steals_per_trial", "count"},
	{"sched.wakeups_per_trial", "count"},
	{"sched.messages_per_trial", "count"},
	{"irqsim.ios_per_trial", "count"},
	{"cgroups.throttles_per_trial", "count"},
	{"probe.coverage_frac", "fraction"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"serve.handler_warm_p50_us", "us"},
	{"serve.handler_warm_p99_us", "us"},
	{"serve.transport_warm_us", "us"},
	{"serve.handler_cold_ms", "ms"},
	{"serve.simulate_cold_ms", "ms"},
	{"serve.cold_nonsim_ms", "ms"},
	{"serve.open_warm_p50_ms", "ms"},
	{"serve.open_warm_p99_ms", "ms"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cold_p99_ms", "ms"},
	{"serve.warm", "count"},
	{"serve.coalesced", "count"},
	{"serve.simulated", "count"},
	{"serve.shed", "count"},
	{"serve.cache_hit_frac", "fraction"},
	{"loadgen.lag_p99_ms", "ms"},
	{"latency.p99_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
	{"trace.covered_frac", "fraction"},
	{"reference.factor", "ratio"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a workload run measured and checked.
type report struct {
	attempted, failed int
	// failures name every correctness check that did not hold.
	failures []string
	// values holds e2e metrics on untraced runs and layer metrics on traced
	// runs; samples the sample count behind each timing, for the log.
	values  map[string]float64
	samples map[string]int
	// layers is the traced run's self-time table (nil when untraced).
	layers *layerTable
	// trace holds the traced run's spans (nil when untraced).
	trace *tracer
	// ref times the machine-speed reference during the run.
	ref speedRef
	// rss holds each measured unit's peak resident set, in MB.
	rss []float64
}

func newReport(workers int, ref reference) *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, ref: speedRef{ref: ref, workers: workers}}
}

func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// rssBegin starts a unit's peak-RSS window: writing 5 to clear_refs
// resets the process's VmHWM to its current RSS.
func (r *report) rssBegin() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.failf("peak RSS: %v", err)
	}
}

// rssEnd records the unit's peak RSS. A single peak depends on where the
// garbage collector happened to run; the median over units repeats.
func (r *report) rssEnd() {
	v, err := peakRSSMB()
	if err != nil {
		r.failf("%v", err)
		return
	}
	r.rss = append(r.rss, v)
}

// result builds the output line from the metric table for the run's mode.
// An end-to-end metric must be measured and positive: a zero or missing
// one is a benchmark fault, reported as a failure.
func (r *report) result(traced bool) result {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	if len(r.rss) > 0 {
		r.values["peak_rss_mb"] = stats.Median(r.rss)
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	f := r.ref.factor()
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !traced {
			v = scaleToReference(v, d.unit, f)
		}
		if !traced && (!ok || !(v > 0)) {
			r.failf("metric %s was not measured (value %v)", d.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.failf("metric %s is not finite", d.name)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		r.failf("no operation was attempted")
		out.Attempted = 1
		out.Failed = 1
	}
	out.Correct = len(r.failures) == 0 && out.Failed == 0
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// runtimeSample is a snapshot of the allocation and GC counters.
type runtimeSample struct {
	allocBytes, allocs float64
	gcCPU, totalCPU    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), allocs: val(1), gcCPU: val(2), totalCPU: val(3)}
}

// runtimeDelta accumulates runtime counters over the untraced units of a
// traced run, so the tracer's own allocations stay out of them.
type runtimeDelta struct {
	runtimeSample
	ops int
}

func (d *runtimeDelta) add(before, after runtimeSample, ops int) {
	d.allocBytes += after.allocBytes - before.allocBytes
	d.allocs += after.allocs - before.allocs
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
	d.ops += ops
}

func (d *runtimeDelta) report(r *report) {
	if d.ops > 0 {
		r.values["runtime.alloc_bytes_per_op"] = d.allocBytes / float64(d.ops)
		r.values["runtime.allocs_per_op"] = d.allocs / float64(d.ops)
	}
	if d.totalCPU > 0 {
		r.values["runtime.gc_cpu_frac"] = d.gcCPU / d.totalCPU
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p50p99 returns the nearest-rank p50 and p99 of xs.
func p50p99(xs []float64) (float64, float64) {
	ps := stats.Percentiles(xs, 50, 99)
	return ps[0], ps[1]
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
