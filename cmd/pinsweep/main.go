// Command pinsweep runs user-defined experiment grids beyond the paper's
// fixed figures: any cross product of platforms × modes × instance sizes
// (CHR points) × workload classes × memory sizes, fanned across a parallel
// worker pool with deterministic per-trial seeding — the sweep output is
// bit-identical at any worker count.
//
// Usage:
//
//	pinsweep                                     # standard series × Table II sizes, FFmpeg
//	pinsweep -platforms cn,vm -modes vanilla,pinned -cores 2,4,8,16
//	pinsweep -workloads ffmpeg,wordpress -reps 5 -seed 7
//	pinsweep -cores 16 -mem 16,32,64             # memory axis (0 = 4 GB/core)
//	pinsweep -host small16                       # CHR against the 16-core host
//	pinsweep -format csv                         # or json, text (default)
//	pinsweep -quick -workers 4 -progress
//	pinsweep -scenario fig7                      # run a registered scenario instead
//	pinsweep -scenario run.json                  # or a user-defined JSON spec
//
// Incremental and distributed sweeps (the durable trial store):
//
//	pinsweep -cores 2,4,8 -store runs/           # cold: simulate + persist
//	pinsweep -cores 2,4,8 -store runs/           # warm: replay, 0 simulations
//	pinsweep -shard 0/2 -store s0/               # machine 1 of 2
//	pinsweep -shard 1/2 -store s1/               # machine 2 of 2
//	pinsweep -merge s0/,s1/                      # assemble the identical sweep
//	pinsweep -store runs/ -v                     # print store statistics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/profiling"
	"repro/internal/storecli"
	"repro/internal/topology"
)

// stopProfiles finishes any active pprof captures; fatalf routes through it
// so a failed sweep still leaves a readable CPU profile behind.
var stopProfiles = func() {}

func main() {
	var (
		platforms = flag.String("platforms", "", "comma list of platforms: bm,vm,cn,vmcn (default: all)")
		modes     = flag.String("modes", "", "comma list of provisioning modes: vanilla,pinned (default: both)")
		cores     = flag.String("cores", "", "comma list of instance sizes in cores (default: Table II sizes)")
		workloads = flag.String("workloads", "ffmpeg", "comma list of workloads: "+strings.Join(experiments.WorkloadNames, ","))
		mem       = flag.String("mem", "", "comma list of instance memory sizes in GB (0 = 4 GB/core)")
		reps      = flag.Int("reps", 0, "repetitions per cell (0 = 3, or 2 with -quick)")
		seed      = flag.Uint64("seed", 42, "random seed")
		quick     = flag.Bool("quick", false, "shrink workloads for a fast pass")
		workers   = flag.Int("workers", 0, "trial fan-out (0 = GOMAXPROCS, 1 = serial)")
		host      = flag.String("host", "paper", "host topology: paper (112 CPUs) or small16")
		scenario  = flag.String("scenario", "", "run a registered scenario (by name) or a JSON spec file instead of a grid sweep")
		format    = flag.String("format", "text", "output format: text, csv or json")
		progress  = flag.Bool("progress", false, "report trial progress on stderr")
		store     = flag.String("store", "", "durable trial store directory: results persist and repeat runs replay instead of simulating")
		merge     = flag.String("merge", "", "comma list of trial store directories to load before running (assembles -shard runs)")
		shardSpec = flag.String("shard", "", "run only shard i/n of the trial grid (e.g. 0/2); pair with -store, then assemble with -merge")
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

	cfg := experiments.Config{
		Reps:     *reps,
		Seed:     *seed,
		Quick:    *quick,
		Executor: experiments.Pool{Workers: *workers},
	}
	sharded, finishStore, err := storecli.Apply("pinsweep", &cfg, storecli.Options{
		Store: *store, Merge: *merge, Shard: *shardSpec, Degraded: *degraded, Verbose: *verbose,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer finishStore()
	switch *host {
	case "paper", "":
		// default host
	case "small16":
		cfg.Host = topology.SmallHost16()
	default:
		fatalf("unknown -host %q (have paper, small16)", *host)
	}
	if *progress {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d trials", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *scenario != "" {
		runScenario(cfg, *scenario, *format, sharded, *shardSpec)
		return
	}

	spec := experiments.SweepSpec{
		Platforms: parsePlatforms(*platforms, *modes),
		Cores:     parseInts("cores", *cores),
		Workloads: parseList(*workloads),
		MemGB:     parseInts("mem", *mem),
		Reps:      *reps,
	}

	res, err := experiments.Sweep(cfg, spec)
	if err != nil {
		fatalf("%v", err)
	}
	if sharded {
		fmt.Fprintf(os.Stderr, "pinsweep: shard %s complete — render with -merge once every shard has run\n", *shardSpec)
		return
	}
	render(*format, res.RenderText, res.RenderCSV, res)
}

// render is the single -format dispatch for both result shapes (sweep and
// scenario): aligned text, CSV, or indented JSON of jsonVal.
func render(format string, text, csv func(w io.Writer), jsonVal any) {
	switch format {
	case "text":
		text(os.Stdout)
	case "csv":
		csv(os.Stdout)
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonVal); err != nil {
			fatalf("json: %v", err)
		}
	default:
		fatalf("unknown -format %q (have text, csv, json)", format)
	}
}

// runScenario resolves -scenario (registered name or JSON spec file, see
// experiments.ResolveScenario) and renders the resulting figure. A shard
// run computes (and persists) its grid partition without rendering — the
// -merge run assembles the full figure.
func runScenario(cfg experiments.Config, nameOrPath, format string, sharded bool, shardSpec string) {
	sc, err := experiments.ResolveScenario(nameOrPath)
	if err != nil {
		fatalf("%v", err)
	}
	f, err := experiments.RunScenario(cfg, sc)
	if err != nil {
		fatalf("scenario %s: %v", sc.Name, err)
	}
	if sharded {
		fmt.Fprintf(os.Stderr, "pinsweep: shard %s of %s complete — render with -merge once every shard has run\n", shardSpec, sc.Name)
		return
	}
	render(format, f.RenderText, f.RenderCSV, f)
}

// parsePlatforms crosses the -platforms and -modes axes into specs. Empty
// inputs mean "all" on that axis; both empty leaves the SweepSpec default
// (the standard seven series, which omits vanilla BM duplicates).
func parsePlatforms(platforms, modes string) []platform.Spec {
	if platforms == "" && modes == "" {
		return nil
	}
	kinds := map[string]platform.Kind{
		"bm": platform.BM, "vm": platform.VM, "cn": platform.CN, "vmcn": platform.VMCN,
	}
	modeBy := map[string]platform.Mode{
		"vanilla": platform.Vanilla, "pinned": platform.Pinned,
	}
	kindList := parseList(platforms)
	if platforms == "" {
		kindList = []string{"bm", "vm", "cn", "vmcn"}
	}
	modeList := parseList(modes)
	if modes == "" {
		modeList = []string{"vanilla", "pinned"}
	}
	var out []platform.Spec
	for _, k := range kindList {
		kind, ok := kinds[strings.ToLower(k)]
		if !ok {
			fatalf("unknown platform %q (have bm, vm, cn, vmcn)", k)
		}
		for _, m := range modeList {
			mode, ok := modeBy[strings.ToLower(m)]
			if !ok {
				fatalf("unknown mode %q (have vanilla, pinned)", m)
			}
			// Pinning bare metal is not a platform of the paper's matrix.
			if kind == platform.BM && mode == platform.Pinned {
				continue
			}
			out = append(out, platform.Spec{Kind: kind, Mode: mode})
		}
	}
	if len(out) == 0 {
		// An empty list would silently fall back to the sweep default (all
		// series) — the opposite of what a narrowing flag asked for.
		fatalf("-platforms/-modes selected nothing (pinned bare metal is not a platform of the matrix)")
	}
	return out
}

func parseList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(name, s string) []int {
	var out []int
	for _, f := range parseList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			fatalf("bad -%s entry %q: %v", name, f, err)
		}
		out = append(out, n)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pinsweep: "+format+"\n", args...)
	stopProfiles()
	os.Exit(1)
}
