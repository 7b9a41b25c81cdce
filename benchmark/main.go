// Command benchmark is the repository's one benchmark: four host-time
// workloads of the simulator and the advisor daemon, each checked for
// correct output, with end-to-end metrics from untraced runs and per-layer
// metrics from traced ones. See README.md.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 42 --out runs/a            # all four workloads
//	bash benchmark/run.sh --seed 42 --out runs/a --trace 1  # plus traced runs
//	bash benchmark/run.sh --compare runs/a runs/b           # verdicts per metric
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// workloads are the benchmark's workloads in run order.
var workloads = []struct {
	name string
	run  func(spec, runEnv) *report
}{
	{"paper-cold", paperCold},
	{"sweep-cold", sweepCold},
	{"replay-warm", replayWarm},
	{"serve-mix", serveMix},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (empty: every workload, each in a child process)")
	seed := fs.Uint64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "measuring window per workload, in seconds")
	trace := fs.Int("trace", 0, "1: traced run, reporting per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "directory for run results, traces and layers.json")
	compare := fs.String("compare", "", "compare the result directory given here with the one given as the argument")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two directories: -compare <dirA> <dirB>")
			return 2
		}
		if err := runCompare(*compare, fs.Arg(0), stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	workers := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	if *name == "" {
		return runAll(*seed, *seconds, *trace == 1, *out, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == *name {
			env := runEnv{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workers: workers, traced: *trace == 1}
			return runOne(w.name, w.run, fullSpec(), env, *out, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
	return 2
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, fn func(spec, runEnv) *report, sp spec, env runEnv, out string, stdout, stderr io.Writer) int {
	env.dir = filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	r := fn(sp, env)
	if err := os.RemoveAll(env.dir); err != nil {
		r.failf("scratch: %v", err)
	}
	r.values["reference.factor"] = r.ref.factor()
	if env.traced && out != "" {
		if err := writeTraceFiles(out, name, r); err != nil {
			r.failf("%v", err)
		}
	}
	res := r.result(env.traced)
	logResult(stderr, name, env, res, r)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// logResult prints every metric by name with its unit and sample count,
// and every failed check, on stderr.
func logResult(w io.Writer, name string, env runEnv, res result, r *report) {
	fmt.Fprintf(w, "%s seed %d workers %d traced %v: %d ops attempted, %d failed; reference %s %.2f ms (factor %.4f over %d samples)\n",
		name, env.seed, env.workers, env.traced, res.Attempted, res.Failed,
		r.ref.ref.name, stats.Median(r.ref.ms), r.ref.factor(), len(r.ref.ms))
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-34s %14.6g %s (measured %.6g)\n", k, res.Metrics[k].Value, res.Metrics[k].Unit, r.values[k])
	}
	for _, k := range sortedKeys(r.samples) {
		fmt.Fprintf(w, "  samples %-26s %d\n", k, r.samples[k])
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}

// writeTraceFiles writes a traced run's Chrome trace and layer table.
func writeTraceFiles(out, name string, r *report) error {
	if r.trace == nil || r.layers == nil {
		return errors.New("trace: the traced run recorded nothing")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := r.trace.writeChrome(filepath.Join(out, name+".trace.json")); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.layers, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(filepath.Join(out, name+".layers.json"), data, 0o644)
}

// runFile is one invocation of every workload, as -out records it and
// -compare reads it.
type runFile struct {
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Workers  int               `json:"workers"`
	Untraced map[string]result `json:"untraced"`
	Traced   map[string]result `json:"traced,omitempty"`
}

// runAll runs every workload in a fresh child process — process-global
// caches start cold and peak RSS belongs to one workload — then, when
// traced, every workload once more with tracing on.
func runAll(seed uint64, seconds int, traced bool, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rf := runFile{Seed: seed, Seconds: seconds, Workers: min(2, runtime.NumCPU()), Untraced: map[string]result{}}
	ok := true
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
		rf.Traced = map[string]result{}
	}
	for _, tr := range modes {
		for _, w := range workloads {
			args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", map[bool]string{false: "0", true: "1"}[tr]}
			if out != "" {
				args = append(args, "--out", out)
			}
			res, err := runChild(self, args, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			if tr {
				rf.Traced[w.name] = res
			} else {
				rf.Untraced[w.name] = res
			}
			for _, k := range sortedKeys(res.Metrics) {
				fmt.Fprintf(stdout, "%-12s %-34s %14.6g %s\n", w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
			}
		}
	}
	if out != "" {
		if err := writeRunFile(out, rf, traced); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			ok = false
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: FAILED")
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and parses its result
// line; a child that fails its checks still yields its result.
func runChild(self string, args []string, stderr io.Writer) (result, error) {
	var res result
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// writeRunFile writes run-<seed>.json and, for a traced run, merges the
// workloads' layer tables into layers.json.
func writeRunFile(out string, rf runFile, traced bool) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("run-%d.json", rf.Seed)), data, 0o644); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	layers := map[string]json.RawMessage{}
	for _, w := range workloads {
		path := filepath.Join(out, w.name+".layers.json")
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		layers[w.name] = b
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	data, err = json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "layers.json"), data, 0o644)
}
