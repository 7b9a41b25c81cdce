package main

// -compare: per workload and end-to-end metric, each side's median and
// quartiles, the share of seed-paired runs the second side wins, and a
// verdict against the metric's bound in BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/stats"
)

// benchFile is the part of BENCHMARK.json the benchmark reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// benchMetric is one metric entry; per-layer metrics have no bound.
type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchFile() (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// loadRuns reads every run-<seed>.json of dir, in seed order.
func loadRuns(dir string) ([]runFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no run-*.json files", dir)
	}
	var out []runFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, nil
}

// side summarizes one directory's values of one metric.
type side struct {
	vals        []float64
	q1, med, q3 float64
}

func summarize(vals []float64) side {
	s := side{vals: vals}
	if len(vals) > 0 {
		q := stats.Percentiles(vals, 25, 75)
		s.q1, s.med, s.q3 = q[0], stats.Median(vals), q[1]
	}
	return s
}

// verdict applies the rule: unresolved when either side's spread exceeds
// the bound (unless every B run beats every A run), regressed when B's
// median is worse than A's by more than the bound, improved when B wins at
// least nine tenths of the pairs and the medians differ by more than A's
// interquartile range, unchanged otherwise.
func verdict(a, b side, winFrac float64, lowerBetter bool, bound float64) string {
	if len(a.vals) == 0 || len(b.vals) == 0 || a.med == 0 || b.med == 0 {
		return "unresolved"
	}
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	worse := (b.med - a.med) / a.med
	if !lowerBetter {
		worse = -worse
	}
	spread := max((a.q3-a.q1)/a.med, (b.q3-b.q1)/b.med)
	allBetter := true
	for _, x := range b.vals {
		for _, y := range a.vals {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case spread > bound && !allBetter:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case winFrac >= 0.9 && better(b.med, a.med) && abs(b.med-a.med) > a.q3-a.q1:
		return "improved"
	}
	return "unchanged"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runCompare prints one row per workload × end-to-end metric.
func runCompare(dirA, dirB string, w io.Writer) error {
	bf, err := loadBenchFile()
	if err != nil {
		return err
	}
	ra, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	rb, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	// Pair runs by seed; without common seeds, by position in seed order.
	type pair struct{ a, b runFile }
	var pairs []pair
	bySeed := map[uint64]runFile{}
	for _, r := range rb {
		bySeed[r.Seed] = r
	}
	for _, r := range ra {
		if o, ok := bySeed[r.Seed]; ok {
			pairs = append(pairs, pair{r, o})
		}
	}
	if len(pairs) == 0 {
		for i := 0; i < len(ra) && i < len(rb); i++ {
			pairs = append(pairs, pair{ra[i], rb[i]})
		}
	}
	fmt.Fprintf(w, "%-12s %-16s %-31s %-31s %5s %s\n", "workload", "metric", "A q1/median/q3", "B q1/median/q3", "wins", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			if m.Bound == nil {
				return fmt.Errorf("BENCHMARK.json: %s has no bound", m.Name)
			}
			get := func(rs []runFile) []float64 {
				var out []float64
				for _, r := range rs {
					if mv, ok := r.Untraced[wl.Name].Metrics[m.Name]; ok {
						out = append(out, mv.Value)
					}
				}
				return out
			}
			a, b := summarize(get(ra)), summarize(get(rb))
			lower := m.Better == "lower"
			wins, n := 0, 0
			for _, p := range pairs {
				x, okA := p.a.Untraced[wl.Name].Metrics[m.Name]
				y, okB := p.b.Untraced[wl.Name].Metrics[m.Name]
				if !okA || !okB {
					continue
				}
				n++
				if (lower && y.Value < x.Value) || (!lower && y.Value > x.Value) {
					wins++
				}
			}
			winFrac := 0.0
			if n > 0 {
				winFrac = float64(wins) / float64(n)
			}
			fmt.Fprintf(w, "%-12s %-16s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %2d/%-2d %s\n",
				wl.Name, m.Name, a.q1, a.med, a.q3, b.q1, b.med, b.q3, wins, n,
				verdict(a, b, winFrac, lower, *m.Bound))
		}
	}
	return nil
}
