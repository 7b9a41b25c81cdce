package pinning

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hypervisor"
	"repro/internal/irqsim"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// benchCfg is the quick one-repetition run the ablation benchmarks share:
// their point is the reported ratio, not the time per iteration.
func benchCfg(seed uint64) experiments.Config {
	return experiments.Config{Quick: true, Reps: 1, Seed: seed}
}

// reportFigure exposes the headline ratio of a regenerated figure as a
// benchmark metric so `go test -bench` output documents the reproduction.
func reportFigure(b *testing.B, f experiments.Figure, series, x string) {
	b.Helper()
	if c, ok := f.Cell(series, x); ok {
		b.ReportMetric(c.Ratio, "overhead_ratio")
	}
}

// ---- ablation benchmarks ----------------------------------------------

// ablationFig7Gap measures the Fig 7 host-size effect with an optional
// mechanism switched off.
func ablationFig7Gap(b *testing.B, ablate machine.Ablation) {
	cfg := benchCfg(1)
	cfg.Ablate = ablate
	f, err := experiments.RunFig7(cfg)
	if err != nil {
		b.Fatal(err)
	}
	small, _ := f.Cell("Pinned CN", "16 cores")
	big, _ := f.Cell("Pinned CN", "112 cores")
	if small.Summary.Mean > 0 {
		b.ReportMetric(big.Summary.Mean/small.Summary.Mean, "host112_vs_host16")
	}
}

// BenchmarkAblationAcctWalk removes the per-host-CPU cgroup accounting walk
// (A1): the container side of Fig 7's host-size effect collapses to the
// NUMA share alone.
func BenchmarkAblationAcctWalk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationFig7Gap(b, machine.AblateAcctWalk)
	}
}

// BenchmarkAblationNUMA removes the memory-interleave penalty: Fig 7's
// host-size effect should mostly vanish.
func BenchmarkAblationNUMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablationFig7Gap(b, machine.AblateNUMA)
	}
}

// BenchmarkAblationIRQAffinity flattens the IRQ distance costs (A2): pinned
// containers lose their IO-affinity edge in the Cassandra experiment.
func BenchmarkAblationIRQAffinity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(uint64(i))
		cfg.Ablate = machine.AblateIRQDistance
		f, err := experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, "Pinned CN", "xLarge")
	}
}

// BenchmarkAblationVMFastpath removes the hypervisor's shared-memory
// message fast path (A3): guest messages pay a host-kernel-like sync cost,
// and the VM loses its MPI advantage over containers in Fig 4.
func BenchmarkAblationVMFastpath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(uint64(i))
		hv := hypervisor.DefaultParams()
		hv.GuestMsgSyncCost = 64 * sim.Microsecond // vs the 10µs fast path
		hv.GuestLineScale = 8
		cfg.HV = &hv
		f, err := experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, "Pinned VM", "16xLarge")
	}
}

// BenchmarkAblationChurnWS forces the unthrottle-churn working-set factor to
// 1 (A5): Cassandra's vanilla-CN PSO falls back toward WordPress levels,
// showing the working-set term is what separates ultra-IO from plain IO in
// Fig 6.
func BenchmarkAblationChurnWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(uint64(i))
		cfg.Ablate = machine.AblateChurnWorkingSet
		f, err := experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, "Vanilla CN", "2xLarge")
	}
}

// BenchmarkAblationWakePlacement disables the last-CPU preference by zeroing
// cache penalties (A4 proxy): migration costs stop mattering, so vanilla
// and pinned converge in Fig 3.
func BenchmarkAblationWakePlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(uint64(i))
		cfg.Ablate = machine.AblateCacheLocality
		f, err := experiments.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, "Vanilla CN", "Large")
	}
}

// ---- micro-benchmarks of the substrates --------------------------------

func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Microsecond, func() {})
		eng.Step()
	}
}

func BenchmarkCPUSetOps(b *testing.B) {
	s := topology.Range(0, 111)
	o := topology.Range(56, 200)
	for i := 0; i < b.N; i++ {
		_ = s.Intersect(o).Union(s.Difference(o)).Count()
	}
}

func BenchmarkSchedulerSlice(b *testing.B) {
	host := topology.PaperHost()
	m := machine.MustNew(machine.HostDefaults(host, 1))
	for i := 0; i < 64; i++ {
		m.Spawn(sched.TaskSpec{
			Name:    "spin",
			Program: sched.Sequence(sched.Compute(sim.Time(b.N) * 10 * sim.Microsecond)),
		}, 0)
	}
	b.ResetTimer()
	m.Run(0)
}

func BenchmarkIRQCompletionCost(b *testing.B) {
	host := topology.PaperHost()
	ctl := irqsim.NewController(host, irqsim.DefaultParams(), irqsim.DefaultChannels())
	ch := ctl.Channel(irqsim.ChanDisk)
	for i := 0; i < b.N; i++ {
		_ = ctl.CompletionCost(ch, i%host.NumCPUs())
	}
}

func BenchmarkStatsSummarize(b *testing.B) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i%97) / 7
	}
	for i := 0; i < b.N; i++ {
		_ = stats.Summarize(xs)
	}
}

// ---- extension-package micro-benchmarks --------------------------------

// BenchmarkTraceHistRecord measures the BCC-analog histogram hot path.
func BenchmarkTraceHistRecord(b *testing.B) {
	h := trace.NewHist(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(sim.Time(i%1000) * sim.Microsecond)
	}
}

// BenchmarkTraceCollector runs a small traced machine end to end: the cost
// of full instrumentation per simulated run.
func BenchmarkTraceCollector(b *testing.B) {
	topo := topology.SmallHost16()
	for i := 0; i < b.N; i++ {
		col := trace.NewCollector(nil)
		cfg := machine.HostDefaults(topo, uint64(i))
		cfg.Trace = col.Fn()
		m := machine.MustNew(cfg)
		for j := 0; j < 8; j++ {
			m.Spawn(sched.TaskSpec{
				Name:    "t",
				Program: sched.Sequence(sched.Compute(sim.Millisecond), sched.IO(0, sim.Millisecond), sched.Compute(sim.Millisecond)),
			}, 0)
		}
		m.Run(0)
		if col.Events() == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkModelFit measures fitting the §VI analytic law on a synthetic
// figs-3..6-sized sample set (24 cells × 4 figures).
func BenchmarkModelFit(b *testing.B) {
	var samples []model.Sample
	for _, k := range []platform.Kind{platform.VM, platform.CN, platform.VMCN} {
		for _, m := range []platform.Mode{platform.Vanilla, platform.Pinned} {
			for _, cl := range []core.AppClass{core.CPUBound, core.Parallel, core.IOBound, core.UltraIOBound} {
				for _, cores := range []int{2, 4, 8, 16, 32, 64} {
					chr := float64(cores) / 112
					samples = append(samples, model.Sample{
						Platform: k, Mode: m, Class: cl,
						CHR:   chr,
						Ratio: 1.2 + 2.0*float64(int(k)%2)*chr,
					})
				}
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.Fit(samples); err != nil {
			b.Fatal(err)
		}
	}
}
