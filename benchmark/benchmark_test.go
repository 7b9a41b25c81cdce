package main

import (
	"bytes"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/serve"
)

func TestMain(m *testing.M) {
	repoRoot = ".."
	os.Exit(m.Run())
}

// tinySpec is every workload at a size that runs in a fraction of a
// second, through the same code as fullSpec.
func tinySpec() spec {
	return spec{
		paperFigures: []string{"fig7"},
		paperQuick:   true,
		paperReps:    1,
		sweep: experiments.SweepSpec{
			Platforms: []platform.Spec{{Kind: platform.BM, Mode: platform.Vanilla}, {Kind: platform.CN, Mode: platform.Pinned}},
			Cores:     []int{2},
			Workloads: []string{"ffmpeg"},
			Reps:      2,
		},
		replayFigures: []string{"fig8"},
		serveNames:    []string{"fig7"},
		serveSeeds:    2,
		coldNames:     []string{"fig7"},
		setupReps:     1,
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bf.RunSeconds, defaultSeconds)
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	for i, w := range workloads {
		if i >= len(wl) || wl[i] != w.name {
			t.Errorf("workload %d is %q here, BENCHMARK.json lists %v", i, w.name, wl)
		}
	}
	check := func(kind string, defs []metricDef, listed []benchMetric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: %s/%s here, %s/%s in BENCHMARK.json", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, bf.EndToEnd)
	check("per_layer", layerMetrics, bf.PerLayer)
	var setup float64
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, *m.Bound, setup)
		}
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size: every check must hold, and the result must carry exactly the
// metric names BENCHMARK.json lists for the mode.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			env := runEnv{seed: 7, seconds: 300 * time.Millisecond, workers: 2, traced: traced, dir: t.TempDir()}
			r := w.run(tinySpec(), env)
			res := r.result(traced)
			for _, f := range r.failures {
				t.Errorf("%s traced=%v: %s", w.name, traced, f)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := names(e2eMetrics)
			if traced {
				want = names(layerMetrics)
			}
			got := sortedKeys(res.Metrics)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
				}
			}
			if traced && (r.layers == nil || r.trace == nil) {
				t.Errorf("%s: traced run produced no layer table", w.name)
			}
		}
	}
}

func TestGoldenCheckPasses(t *testing.T) {
	if err := goldenCheck(2); err != nil {
		t.Fatal(err)
	}
}

// TestChecksFire shows that each check rejects a perturbed input and
// accepts the unperturbed one.
func TestChecksFire(t *testing.T) {
	golden := []byte("FIG3 — a figure\n1.00±0.01\n")
	flipped := bytes.Clone(golden)
	flipped[5] ^= 1
	if checkGolden(golden, golden) != nil || checkGolden(flipped, golden) == nil {
		t.Error("checkGolden does not tell a flipped byte")
	}
	if checkSameRender("x", golden, golden) != nil || checkSameRender("x", flipped, golden) == nil {
		t.Error("checkSameRender does not tell a flipped byte")
	}
	if checkDigest(flipped, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855") == nil {
		t.Error("checkDigest accepts the wrong bytes")
	}
	if checkDigest(nil, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855") != nil {
		t.Error("checkDigest rejects the empty input's digest")
	}

	body := []byte(`{"name":"fig3"}`)
	if checkResponse(200, "warm", body, "warm", body) != nil {
		t.Error("checkResponse rejects a good warm response")
	}
	for _, bad := range []struct {
		status int
		source string
		body   []byte
	}{
		{200, "simulated", body},
		{200, "warm", []byte(`{"name":"fig4"}`)},
		{429, "warm", body},
	} {
		if checkResponse(bad.status, bad.source, bad.body, "warm", body) == nil {
			t.Errorf("checkResponse accepts status %d source %q body %s", bad.status, bad.source, bad.body)
		}
	}

	if checkWarmStore(resultstore.Stats{Hits: 10}) != nil || checkWarmStore(resultstore.Stats{Hits: 9, Misses: 1}) == nil {
		t.Error("checkWarmStore does not tell a miss")
	}
	good := resultstore.Stats{Misses: 4, Appended: 4}
	if checkColdStore(good, 4, 4) != nil {
		t.Error("checkColdStore rejects a good pass")
	}
	for _, bad := range []struct {
		st       resultstore.Stats
		reloaded uint64
	}{
		{resultstore.Stats{Misses: 4, Appended: 3}, 4},
		{resultstore.Stats{Misses: 4, Appended: 4, Corrupt: 1}, 4},
		{resultstore.Stats{Misses: 4, Appended: 4, Degraded: true}, 4},
		{good, 3},
	} {
		if checkColdStore(bad.st, bad.reloaded, 4) == nil {
			t.Errorf("checkColdStore accepts %+v reloaded %d", bad.st, bad.reloaded)
		}
	}
	if checkServeStats(serve.StatsJSON{Simulated: 35}, 32, 3) != nil ||
		checkServeStats(serve.StatsJSON{Simulated: 34}, 32, 3) == nil ||
		checkServeStats(serve.StatsJSON{Simulated: 35, Shed: 1}, 32, 3) == nil {
		t.Error("checkServeStats does not tell a missing simulation or a shed request")
	}
}

func TestVerdict(t *testing.T) {
	base := summarize([]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100})
	shift := func(f float64) side {
		var v []float64
		for _, x := range base.vals {
			v = append(v, x*f)
		}
		return summarize(v)
	}
	for _, c := range []struct {
		b       side
		win     float64
		lower   bool
		verdict string
	}{
		{base, 0.5, true, "unchanged"},
		{shift(1.2), 0, true, "regressed"},
		{shift(0.8), 1, true, "improved"},
		{shift(0.8), 1, false, "regressed"},
		{summarize([]float64{50, 150, 80, 120, 100, 60, 140, 100, 90, 110}), 0.5, true, "unresolved"},
	} {
		if got := verdict(base, c.b, c.win, c.lower, 0.1); got != c.verdict {
			t.Errorf("median %v lower=%v: %s, want %s", c.b.med, c.lower, got, c.verdict)
		}
	}
}
