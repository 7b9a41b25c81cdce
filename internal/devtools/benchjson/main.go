// Command benchjson runs CI's four same-run fraction gates. It measures
// five benchmarks of ./internal/experiments and two of ./internal/stats,
// and fails when one of them costs more than its fixed fraction of
// another:
//
//   - ScenarioDispatch ≤ 0.05 × QuickFig3Serial: what the declarative
//     engine adds to a figure run (registry lookup, validation, workload
//     resolution, fingerprint) stays under 5% of the figure itself;
//   - StoreHit ≤ 1.10 × MemoHit: a disk-backed warm hit stays within 10%
//     of the in-memory memo hit, so durability is an open-time cost;
//   - MemoHitParallel ≤ 1.50 × MemoHit: the sharded memo under
//     GOMAXPROCS-way warm-key contention stays near the serial hit;
//   - BootstrapCISweepCell ≤ 0.50 × BootstrapCIReference: a pinsweep
//     cell's bootstrap interval costs at most half of the textbook
//     rand.Intn-and-sort loop it reproduces bit for bit.
//
// Both sides of a gate come from the same run on the same machine, so the
// gates hold on any runner. Each benchmark runs three times and keeps its
// best ns/op; a benchmark missing from the output fails the run by name.
//
// Usage, from the repository root (no flags):
//
//	go run ./internal/devtools/benchjson
package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// runs lists what the gates read, one `go test` invocation each, with the
// package that holds its benchmarks. Six iterations of the figure are
// ~150 ms a sample; the ~80 ns hits get a full second (~10M iterations)
// each, and MemoHit and StoreHit share a process so their 10% comparison
// sees the same warm-up; so do the two bootstrap benchmarks, a few
// hundred µs a call.
var runs = []struct {
	pkg       string
	benchtime string
	names     []string
}{
	{"./internal/experiments", "6x", []string{"QuickFig3Serial"}},
	{"./internal/experiments", "0.3s", []string{"ScenarioDispatch"}},
	{"./internal/experiments", "1s", []string{"MemoHit", "StoreHit"}},
	{"./internal/experiments", "1s", []string{"MemoHitParallel"}},
	{"./internal/stats", "0.5s", []string{"BootstrapCISweepCell", "BootstrapCIReference"}},
}

// gates asserts small ≤ frac × big on the measured ns/op.
var gates = []struct {
	small, big string
	frac       float64
}{
	{"ScenarioDispatch", "QuickFig3Serial", 0.05},
	{"StoreHit", "MemoHit", 1.10},
	{"MemoHitParallel", "MemoHit", 1.50},
	{"BootstrapCISweepCell", "BootstrapCIReference", 0.50},
}

// benchLine matches `BenchmarkName-8  123  456 ns/op ...`.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)

func main() {
	ns := map[string]float64{}
	for _, r := range runs {
		args := []string{"test", "-run", "^$", "-bench", "^Benchmark(" + strings.Join(r.names, "|") + ")$",
			"-benchtime", r.benchtime, "-count", "3", r.pkg}
		fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fatalf("go test: %v", err)
		}
		for _, name := range r.names {
			if ns[name], err = bestNsPerOp(string(out), r.pkg, name); err != nil {
				fatalf("%v", err)
			}
		}
	}
	ok := true
	for _, g := range gates {
		small, big := ns[g.small], ns[g.big]
		verdict := "ok"
		if small > g.frac*big {
			verdict = "FAILED"
			ok = false
		}
		fmt.Printf("benchjson: %s (%.0f ns/op) ≤ %.2f × %s (%.0f ns/op): ratio %.4f — %s\n",
			g.small, small, g.frac, g.big, big, small/big, verdict)
	}
	if !ok {
		os.Exit(1)
	}
}

// bestNsPerOp returns the lowest ns/op among name's lines in one
// `go test -bench` output of pkg, the usual noise-rejection rule across
// -count runs. A name with no line is an error, so a renamed or deleted
// benchmark fails the gate instead of vacating it.
func bestNsPerOp(output, pkg, name string) (float64, error) {
	best, found := 0.0, false
	for _, line := range strings.Split(output, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || m[1] != name {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: bad ns/op in %q: %v", name, line, err)
		}
		if !found || v < best {
			best, found = v, true
		}
	}
	if !found {
		return 0, fmt.Errorf("benchmark %s missing from the output of %s", name, pkg)
	}
	return best, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
