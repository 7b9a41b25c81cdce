package experiments

import (
	"fmt"
	"strings"

	"repro/internal/hypervisor"
	"repro/internal/irqsim"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ProfileSpec selects one deployment to profile with the BCC-analog
// instruments (the paper's §III-A methodology: cpudist + offcputime while a
// workload runs on a platform).
type ProfileSpec struct {
	// App is one of "ffmpeg", "mpi", "wordpress", "cassandra".
	App string
	// Platform is one of "bm", "vm", "cn", "vmcn".
	Platform string
	// Mode is "vanilla" or "pinned".
	Mode string
	// Size is a Table II instance name, e.g. "xLarge".
	Size string
}

// ProfileResult bundles the collector with the run's headline metric.
type ProfileResult struct {
	Spec      ProfileSpec
	Collector *trace.Collector
	// MetricSecs is the workload metric (execution/response time, seconds).
	MetricSecs float64
	// Channels are the machine's IO channels after the run (the iostat
	// analog: completion-affinity counters per device). For VM/VMCN these
	// are the guest's paravirtual devices.
	Channels []*irqsim.Channel
}

// ParsePlatform maps a CLI platform name to its Kind (one name-to-enum
// mapping for the whole repo: platform.ParseKind).
func ParsePlatform(s string) (platform.Kind, error) {
	return platform.ParseKind(s)
}

// ParseMode maps a CLI mode name to its Mode (delegating to the repo-wide
// mapping, platform.ParseMode; the empty string means vanilla).
func ParseMode(s string) (platform.Mode, error) {
	return platform.ParseMode(s)
}

// WorkloadFor returns the named application's default workload, scaled for
// quick runs.
func WorkloadFor(app string, cfg Config) (workload.Workload, error) {
	switch strings.ToLower(app) {
	case "ffmpeg":
		return transcodeFor(cfg, 1), nil
	case "mpi":
		return workload.DefaultMPISearch(), nil
	case "wordpress", "web":
		w := workload.DefaultWeb()
		if cfg.Quick {
			w.Requests /= 4
		}
		return w, nil
	case "cassandra", "nosql":
		return workload.DefaultNoSQL(), nil
	}
	return nil, fmt.Errorf("experiments: unknown app %q (ffmpeg, mpi, wordpress, cassandra)", app)
}

// RunProfile deploys one platform, attaches the trace collector and runs the
// workload to completion.
func RunProfile(ps ProfileSpec, cfg Config) (*ProfileResult, error) {
	cfg = cfg.withDefaults()
	kind, err := ParsePlatform(ps.Platform)
	if err != nil {
		return nil, err
	}
	mode, err := ParseMode(ps.Mode)
	if err != nil {
		return nil, err
	}
	it, ok := InstanceByName(ps.Size)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown instance %q (Table II names)", ps.Size)
	}
	w, err := WorkloadFor(ps.App, cfg)
	if err != nil {
		return nil, err
	}
	col := trace.NewCollector(nil)
	seed := seedFor(cfg.Seed, 70)
	hostCfg := machine.HostDefaults(cfg.Host, seed)
	hostCfg.Trace = col.Fn()
	spec := platform.Spec{Kind: kind, Mode: mode, Cores: it.Cores}
	d, err := platform.Deploy(spec, hostCfg, hypervisor.DefaultParams(), seed)
	if err != nil {
		return nil, err
	}
	env := workload.EnvFor(d.M, d.Group, d.Affinity, spec.Cores)
	env.MemGB = it.MemGB
	inst := w.Spawn(env)
	res := d.M.Run(cfg.TimeLimit)
	secs := inst.Metric(res)
	if res.TimedOut {
		secs = cfg.TimeLimit.Seconds()
	}
	return &ProfileResult{
		Spec:       ps,
		Collector:  col,
		MetricSecs: secs,
		Channels:   d.M.IRQ.Channels(),
	}, nil
}
