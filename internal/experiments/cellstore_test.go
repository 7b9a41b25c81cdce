package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/resultstore"
	"repro/internal/stats"
)

// sweepQuickSpec and sweepQuickConfig are the sweep_quick_* golden grid
// (TestSweepQuickMatchesGolden).
var sweepQuickSpec = SweepSpec{Cores: []int{2, 16}, Workloads: []string{"ffmpeg", "mpi"}, MemGB: []int{0, 32}, Reps: 2}

func sweepQuickConfig(st TrialStore) Config {
	return Config{Seed: 42, Quick: true, Reps: 2, Executor: Pool{Workers: 2}, Memo: st}
}

// runSweepQuick runs the golden grid through st and fails t unless all
// three renderings match their goldens.
func runSweepQuick(t *testing.T, st TrialStore) *SweepResult {
	t.Helper()
	res, err := Sweep(sweepQuickConfig(st), sweepQuickSpec)
	if err != nil {
		t.Fatal(err)
	}
	var text, csv, js bytes.Buffer
	res.RenderText(&text)
	res.RenderCSV(&csv)
	enc := json.NewEncoder(&js)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	matchGolden(t, "sweep_quick_text.golden", text.Bytes())
	matchGolden(t, "sweep_quick_csv.golden", csv.Bytes())
	matchGolden(t, "sweep_quick_json.golden", js.Bytes())
	return res
}

// checkBootCIOracle fails t unless every cell's BootCI has the bits of a
// direct stats.BootstrapCI over the cell's trial metrics, read back from
// st's trial tier, under the cell's content-derived seed.
func checkBootCIOracle(t *testing.T, st TrialStore, res *SweepResult) {
	t.Helper()
	cfg := sweepQuickConfig(st).withDefaults()
	spec := sweepQuickSpec.withDefaults(cfg)
	plan, err := planSweep(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != len(res.Cells) {
		t.Fatalf("%d planned cells, %d in the result", len(plan), len(res.Cells))
	}
	for ci, pc := range plan {
		vals := make([]float64, spec.Reps)
		for rep := range vals {
			r, ok := st.Get(trialKey(cfg, pc.input(cfg, rep)))
			if !ok {
				t.Fatalf("cell %d repetition %d is not in the store", ci, rep)
			}
			vals[rep] = r.Metric
		}
		c := pc.cell
		seed := seedFor(cfg.Seed, 0x42_53, uint64(c.Spec.Kind), uint64(c.Spec.Mode),
			uint64(c.Cores), uint64(c.MemGB), workloadTag(c.Workload))
		want := stats.BootstrapCI(vals, 0.95, bootResamples, int64(seed&math.MaxInt64))
		if got := res.Cells[ci].BootCI; !sameInterval(got, want) {
			t.Errorf("cell %d (%s %s %dc): BootCI %+v, direct BootstrapCI %+v", ci, c.Platform, c.Workload, c.Cores, got, want)
		}
	}
}

// sameInterval compares intervals by their exact bits.
func sameInterval(a, b stats.Interval) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi) &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence)
}

// TestSweepCellIntervalsReplayFromStore: a cold sweep of the golden grid
// computes and persists every cell's interval, and a reopened store
// renders all three goldens with every interval replayed and none
// computed. Cold and warm, each interval has the bits of a direct
// BootstrapCI. The trial tier's counters count trials only.
func TestSweepCellIntervalsReplayFromStore(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := runSweepQuick(t, st)
	checkBootCIOracle(t, st, cold)
	cells := len(cold.Cells)
	if c := st.Cells().Stats(); c.Misses != uint64(cells) || c.Hits != 0 || c.Appended != uint64(cells) {
		t.Fatalf("cold cells tier %+v, want %d intervals computed and appended", c, cells)
	}
	trials := st.Stats().Misses
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if loaded := st.Stats().Loaded; loaded != trials {
		t.Fatalf("reopen loaded %d trial records, want the %d trials alone", loaded, trials)
	}
	warm := runSweepQuick(t, st)
	if c := st.Cells().Stats(); c.Misses != 0 || c.Hits != uint64(cells) || c.Loaded != uint64(cells) {
		t.Fatalf("warm cells tier %+v, want all %d intervals loaded and replayed", c, cells)
	}
	line := StoreStatsLine(st)
	for _, want := range []string{"0 misses (0 simulations)", fmt.Sprintf(", %d cell intervals replayed (0 computed)", cells)} {
		if !strings.Contains(line, want) {
			t.Errorf("warm stats line %q lacks %q", line, want)
		}
	}
	checkBootCIOracle(t, st, warm)
}

// TestCellKeySensitivity: the cell key changes with every input the
// interval depends on — any one value's bits (signed zeros and NaN
// payloads included), the sample size, the seed, the resample count and
// the confidence — and with nothing else.
func TestCellKeySensitivity(t *testing.T) {
	base := []float64{1.5, 0, 2.25, math.Float64frombits(0x7ff8000000000001)}
	key := func(vals []float64) uint64 { return cellKey(vals, 0.95, bootResamples, 7) }
	want := key(base)
	if again := key(append([]float64(nil), base...)); again != want {
		t.Fatalf("equal inputs keyed %#x and %#x", want, again)
	}
	with := func(i int, v float64) []float64 {
		vals := append([]float64(nil), base...)
		vals[i] = v
		return vals
	}
	variants := map[string]uint64{
		"one value's last bit": key(with(0, math.Nextafter(1.5, 2))),
		"+0 to -0":             key(with(1, math.Copysign(0, -1))),
		"NaN payload":          key(with(3, math.Float64frombits(0x7ff8000000000002))),
		"n+1":                  key(append(append([]float64(nil), base...), 0)),
		"n-1":                  key(base[:3]),
		"seed":                 cellKey(base, 0.95, bootResamples, 8),
		"resamples":            cellKey(base, 0.95, bootResamples+1, 7),
		"confidence":           cellKey(base, 0.9, bootResamples, 7),
	}
	seen := map[uint64]string{want: "base"}
	for name, k := range variants {
		if other, dup := seen[k]; dup {
			t.Errorf("%s keys the same as %s (%#x)", name, other, k)
		}
		seen[k] = name
	}
}

// FuzzIntervalRecord: any payload either fails decoding or is exactly the
// canonical record of what it decodes to, so a stored interval can only
// replay as the bits that were written.
func FuzzIntervalRecord(f *testing.F) {
	var c intervalCodec
	f.Add(c.Append(nil, stats.Interval{Lo: 1, Hi: 2, Confidence: 0.95}))
	f.Add(c.Append(nil, stats.Interval{Lo: math.Nextafter(1, 0), Hi: math.Float64frombits(0x7ff8000000000003), Confidence: 0}))
	f.Add([]byte{cellSchema})
	f.Add(make([]byte, intervalRecordLen))
	f.Fuzz(func(t *testing.T, payload []byte) {
		iv, err := c.Decode(payload)
		valid := len(payload) == intervalRecordLen && payload[0] == cellSchema
		if err != nil {
			if valid {
				t.Fatalf("well-formed record %x failed decoding: %v", payload, err)
			}
			return
		}
		if !valid {
			t.Fatalf("malformed record %x decoded to %+v", payload, iv)
		}
		if again := c.Append(nil, iv); !bytes.Equal(again, payload) {
			t.Fatalf("record %x re-encodes as %x", payload, again)
		}
	})
}

// cellSegment returns the one cells-tier segment of the store at dir.
func cellSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, cellsDir, "seg-*.psr"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one cells segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

// TestCellTierFaultsKeepOutput: a flipped byte or a torn tail in a cells
// segment costs the damaged intervals a recomputation, and a cells tier
// that cannot be written degrades to memory with one warning; none of
// them changes an output byte or the trial tier.
func TestCellTierFaultsKeepOutput(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(runSweepQuick(t, st).Cells)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := cellSegment(t, dir)
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := 12 + intervalRecordLen + 8

	for _, c := range []struct {
		name   string
		damage func([]byte) []byte
		warn   string
	}{
		{"flipped byte", func(b []byte) []byte { b[8+3*recLen+15] ^= 0x40; return b }, "checksum"},
		{"torn tail", func(b []byte) []byte { return b[:len(b)-5] }, "torn"},
	} {
		if err := os.WriteFile(seg, c.damage(bytes.Clone(pristine)), 0o644); err != nil {
			t.Fatal(err)
		}
		var warn bytes.Buffer
		st, err := openTrialStoreWarn(dir, &warn)
		if err != nil {
			t.Fatal(err)
		}
		runSweepQuick(t, st)
		cs := st.Cells().Stats()
		if cs.Corrupt != 1 || cs.Misses != 1 || cs.Hits != uint64(cells-1) || cs.Appended != 1 {
			t.Errorf("%s: cells tier %+v, want the one damaged interval recomputed and re-appended", c.name, cs)
		}
		if ts := st.Stats(); ts.Misses != 0 || ts.Corrupt != 0 {
			t.Errorf("%s: trial tier %+v, want it untouched", c.name, ts)
		}
		if !strings.Contains(warn.String(), c.warn) {
			t.Errorf("%s: warnings %q lack %q", c.name, warn.String(), c.warn)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Drop the recomputed interval's segment for the next case.
		if err := os.RemoveAll(filepath.Join(dir, cellsDir)); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, cellsDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Unwritable: with the trial tier warm, every write the run attempts
	// is a cells record, and each one fails for good.
	if err := os.RemoveAll(filepath.Join(dir, cellsDir)); err != nil {
		t.Fatal(err)
	}
	var warn bytes.Buffer
	st, err = OpenTrialStore(dir,
		resultstore.WithFS(resultstore.NewFaultFS(nil, resultstore.FaultSpec{FailWriteEvery: 1, Permanent: true})),
		resultstore.WithWarnWriter(&warn),
		resultstore.WithSleep(func(time.Duration) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runSweepQuick(t, st)
	cs := st.Cells().Stats()
	if !cs.Degraded || cs.Misses != uint64(cells) || cs.Unpersisted != uint64(cells) {
		t.Fatalf("unwritable cells tier %+v, want it degraded with all %d intervals computed in memory", cs, cells)
	}
	if ts := st.Stats(); ts.Degraded || ts.Misses != 0 {
		t.Fatalf("trial tier %+v, want it warm and undegraded", ts)
	}
	if got := strings.Count(warn.String(), "degraded to memory-only"); got != 1 {
		t.Fatalf("%d degradation warnings, want exactly 1:\n%s", got, warn.String())
	}
}
