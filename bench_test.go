package pinning

import (
	"testing"

	"repro/internal/core"
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

// ---- micro-benchmarks of the substrates --------------------------------

func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	var tm sim.Timer
	tm.InitArg(eng, func(any) {}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(sim.Microsecond)
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
