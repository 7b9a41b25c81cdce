// Command pinsim regenerates the paper's tables and figures from the
// simulator.
//
// Usage:
//
//	pinsim -fig 3          # print Figure 3 as a text table
//	pinsim -fig all        # print every figure
//	pinsim -list           # list every registered scenario
//	pinsim -fig fig6-large # any registered scenario runs by name
//	pinsim -scenario run.json   # run a user-defined scenario from JSON
//	pinsim -table 2        # print Table II
//	pinsim -chr            # print the §IV-A CHR band analysis
//	pinsim -decompose 3    # print the §IV PTO/PSO split of Figure 3
//	pinsim -fig 5 -csv     # CSV output
//	pinsim -fig 3 -breakdown  # include the overhead attribution
//	pinsim -reps 5 -seed 7 -quick
//	pinsim -fig all -workers 8   # parallel trial fan-out (deterministic)
//
// Incremental and distributed runs (the durable trial store):
//
//	pinsim -fig all -quick -store runs/   # cold: simulate + persist
//	pinsim -fig all -quick -store runs/   # warm: replay, 0 simulations
//	pinsim -fig all -quick -shard 0/2 -store s0/   # machine 1 of 2
//	pinsim -fig all -quick -shard 1/2 -store s1/   # machine 2 of 2
//	pinsim -fig all -quick -merge s0/,s1/          # assemble, identical bytes
//	pinsim -fig 3 -quick -store runs/ -v           # print store statistics
//
// Profiling (the paper's §III-A BCC methodology — cpudist/offcputime):
//
//	pinsim -profile -app cassandra -platform cn -mode vanilla -size xLarge
//
// Self-profiling (pprof captures of the simulator itself, for perf PRs):
//
//	pinsim -fig all -quick -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof pinsim cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/irqsim"
	"repro/internal/profiling"
	"repro/internal/storecli"
	"repro/internal/topology"
)

// stopProfiles finishes any active pprof captures; fatalf routes through it
// so a failed run still leaves a readable CPU profile behind.
var stopProfiles = func() {}

func main() {
	var (
		fig       = flag.String("fig", "", "scenario to regenerate: 3..8, 'all', or any registered name (see -list)")
		scenario  = flag.String("scenario", "", "run a user-defined scenario from a JSON spec file")
		list      = flag.Bool("list", false, "list the registered scenarios and exit")
		table     = flag.Int("table", 0, "table to print: 1..3")
		chr       = flag.Bool("chr", false, "run the §IV-A CHR band analysis")
		decompose = flag.Int("decompose", 0, "PTO/PSO decomposition of a figure (3..6)")
		reps      = flag.Int("reps", 0, "override repetitions per cell (0 = paper defaults)")
		seed      = flag.Uint64("seed", 42, "random seed")
		quick     = flag.Bool("quick", false, "shrink workloads for a fast pass")
		workers   = flag.Int("workers", 0, "trial fan-out (0 = GOMAXPROCS, 1 = serial)")
		csv       = flag.Bool("csv", false, "emit CSV instead of a text table")
		breakdown = flag.Bool("breakdown", false, "also emit the overhead attribution")
		fitmodel  = flag.Bool("model", false, "fit and print the §VI analytic overhead model (from figs 3-6)")
		profile   = flag.Bool("profile", false, "profile one deployment with the BCC-analog instruments")
		app       = flag.String("app", "ffmpeg", "profiled app: ffmpeg, mpi, wordpress, cassandra")
		plat      = flag.String("platform", "cn", "profiled platform: bm, vm, cn, vmcn")
		mode      = flag.String("mode", "vanilla", "profiled mode: vanilla, pinned")
		size      = flag.String("size", "xLarge", "profiled instance type (Table II name)")
		store     = flag.String("store", "", "durable trial store directory: results persist and repeat runs replay instead of simulating")
		merge     = flag.String("merge", "", "comma list of trial store directories to load before running (assembles -shard runs)")
		shard     = flag.String("shard", "", "run only shard i/n of every trial grid (e.g. 0/2); pair with -store, then assemble with -merge")
		degraded  = flag.String("store-degraded", "fail", "unusable -store directory policy: fail (abort before simulating) or allow (run memory-only with one warning)")
		verbose   = flag.Bool("v", false, "print trial store statistics on stderr after the run")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	stop, err := profiling.Start(*cpuprof, *memprof)
	if err != nil {
		fatalf("%v", err)
	}
	stopProfiles = stop
	defer stop()

	cfg := experiments.Config{Reps: *reps, Seed: *seed, Quick: *quick, Executor: experiments.Pool{Workers: *workers}}

	sharded, finishStore, err := storecli.Apply("pinsim", &cfg, storecli.Options{
		Store: *store, Merge: *merge, Shard: *shard, Degraded: *degraded, Verbose: *verbose,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer finishStore()
	if sharded && (*chr || *decompose != 0 || *fitmodel || *profile) {
		fatalf("-shard partitions plain trial grids; it does not support -chr, -decompose, -model or -profile")
	}

	out := os.Stdout
	did := false

	if *table != 0 {
		did = true
		switch *table {
		case 1:
			experiments.RenderTable1(out)
		case 2:
			experiments.RenderTable2(out)
		case 3:
			experiments.RenderTable3(out)
		default:
			fatalf("no table %d (have 1..3)", *table)
		}
	}

	render := func(f experiments.Figure) {
		// A shard run computes a deterministic subset of the grid; its
		// aggregate figure would be misleading, so rendering waits for the
		// -merge run that assembles every shard's store.
		if sharded {
			fmt.Fprintf(os.Stderr, "pinsim: shard %s of %s complete — render with -merge once every shard has run\n", *shard, f.ID)
			return
		}
		if *csv {
			f.RenderCSV(out)
		} else {
			f.RenderText(out)
		}
		if *breakdown {
			f.RenderBreakdown(out)
		}
	}

	if *list {
		did = true
		for _, sc := range experiments.Scenarios() {
			fmt.Fprintf(out, "%-12s %s\n", sc.Name, sc.Description)
		}
	}

	if *fig != "" {
		did = true
		var names []string
		if *fig == "all" {
			names = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}
		} else {
			name := *fig
			// Bare figure numbers keep working: "3" means "fig3".
			if _, err := strconv.Atoi(name); err == nil {
				name = "fig" + name
			}
			names = []string{name}
		}
		for _, name := range names {
			f, err := experiments.RunRegistered(name, cfg)
			if err != nil {
				fatalf("%v", err)
			}
			render(f)
		}
	}

	if *scenario != "" {
		did = true
		sc, err := experiments.ResolveScenario(*scenario)
		if err != nil {
			fatalf("%v", err)
		}
		f, err := experiments.RunScenario(cfg, sc)
		if err != nil {
			fatalf("scenario %s: %v", sc.Name, err)
		}
		render(f)
	}

	if *chr {
		did = true
		bands, err := experiments.RunCHRSweep(cfg)
		if err != nil {
			fatalf("chr sweep: %v", err)
		}
		experiments.RenderCHR(out, bands)
	}

	if *decompose != 0 {
		did = true
		f, err := experiments.RunFigure(*decompose, cfg)
		if err != nil {
			fatalf("figure %d: %v", *decompose, err)
		}
		experiments.RenderDecomposition(out, f, experiments.Decompose(f))
	}

	if *fitmodel {
		did = true
		m, err := experiments.FitModel([]int{3, 4, 5, 6}, cfg)
		if err != nil {
			fatalf("model: %v", err)
		}
		host := cfg.Host
		if host == nil {
			host = topology.PaperHost()
		}
		m.Render(out, host.NumCPUs())
	}

	if *profile {
		did = true
		res, err := experiments.RunProfile(experiments.ProfileSpec{
			App: *app, Platform: *plat, Mode: *mode, Size: *size,
		}, cfg)
		if err != nil {
			fatalf("profile: %v", err)
		}
		fmt.Fprintf(out, "profile: %s on %s/%s %s — metric %.3fs, %d trace events\n\n",
			*app, *plat, *mode, *size, res.MetricSecs, res.Collector.Events())
		res.Collector.Report(out)
		fmt.Fprintf(out, "\n== iostat (completion affinity per device) ==\n")
		irqsim.RenderIOStat(out, res.Channels)
	}

	if !did {
		flag.Usage()
		stopProfiles()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pinsim: "+format+"\n", args...)
	stopProfiles()
	os.Exit(1)
}
