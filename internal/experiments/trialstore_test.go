package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/sched"
)

// TestTrialCodecRoundTrip: the durable record form replays a TrialResult
// bit-for-bit, including exact float patterns.
func TestTrialCodecRoundTrip(t *testing.T) {
	r := TrialResult{
		Metric: 123.456789e-3,
		Breakdown: sched.Breakdown{
			UsefulWork: 1, SwitchTime: 2, MigrationTime: 3, AcctTime: 4, ChurnTime: 5,
			ThrottleTime: 6, IRQTime: 7, VirtioTime: 8, MsgTime: 9, NestedTime: 10, WanderTime: 11,
			Switches: 12, Migrations: 13, Steals: 14, Wakeups: 15, IOs: 16, Messages: 17, Throttles: 18,
		},
	}
	var c trialCodec
	enc := c.Append(nil, r)
	if len(enc) != trialRecordLen {
		t.Fatalf("encoded %d bytes, want %d", len(enc), trialRecordLen)
	}
	got, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip diverged:\n got  %+v\n want %+v", got, r)
	}
	// Exact bits survive for awkward floats too.
	r2 := TrialResult{Metric: math.Nextafter(1, 2)}
	got2, err := c.Decode(c.Append(nil, r2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got2.Metric) != math.Float64bits(r2.Metric) {
		t.Fatal("float bit pattern did not survive the round trip")
	}
}

// TestTrialCodecRejectsWrongShapes locks the decode guards the corruption
// scan relies on.
func TestTrialCodecRejectsWrongShapes(t *testing.T) {
	var c trialCodec
	if _, err := c.Decode(make([]byte, trialRecordLen-1)); err == nil {
		t.Fatal("short record must fail decoding")
	}
	bad := c.Append(nil, TrialResult{})
	bad[0] = trialRecordSchema + 1
	if _, err := c.Decode(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema version must fail decoding, got %v", err)
	}
}

// runFig3Quick renders fig3 -quick with the given store.
func runFig3Quick(t *testing.T, st TrialStore) string {
	t.Helper()
	cfg := Config{Seed: 42, Quick: true, Executor: Pool{Workers: 2}, Memo: st}
	f, err := RunRegistered("fig3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.RenderText(&buf)
	return buf.String()
}

// TestWarmStoreRunIsIncrementalAcrossProcesses is the tentpole contract: a
// second "process" (fresh store handle over the same directory) renders
// the identical figure while simulating nothing.
func TestWarmStoreRunIsIncrementalAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick figure twice")
	}
	dir := t.TempDir()
	st, err := OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := runFig3Quick(t, st)
	coldMisses := st.Stats().Misses
	if coldMisses == 0 {
		t.Fatal("cold run simulated nothing")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := runFig3Quick(t, st2)
	if warm != cold {
		t.Fatal("warm run diverged from the cold run")
	}
	s := st2.Stats()
	if s.Misses != 0 {
		t.Fatalf("warm run simulated %d trials, want 0", s.Misses)
	}
	if s.Loaded != coldMisses || s.Appended != 0 {
		t.Fatalf("warm stats = %+v, want %d loaded / 0 appended", s, coldMisses)
	}
}

// TestCorruptStoreNeverWrongFigure: flip bytes, truncate and cross-version
// a store — the next run recomputes what it cannot trust and still renders
// the exact figure.
func TestCorruptStoreNeverWrongFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick figure three times")
	}
	dir := t.TempDir()
	st, err := OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := runFig3Quick(t, st)
	st.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.psr"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the third record's payload and truncate the final
	// record's checksum.
	recLen := 12 + trialRecordLen + 8
	data[8+2*recLen+20] ^= 0xa5
	data = data[:len(data)-7]
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	st2, err := openTrialStoreWarn(dir, &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := runFig3Quick(t, st2)
	if got != want {
		t.Fatal("a corrupt store changed the rendered figure")
	}
	s := st2.Stats()
	if s.Corrupt != 2 {
		t.Fatalf("stats = %+v, want exactly the 2 damaged records skipped", s)
	}
	if s.Misses != 2 || s.Appended != 2 {
		t.Fatalf("stats = %+v, want the 2 damaged trials recomputed and re-persisted", s)
	}
	if w := warn.String(); !strings.Contains(w, "checksum") || !strings.Contains(w, "torn") {
		t.Fatalf("expected checksum and torn warnings, got %q", w)
	}
}

// TestStoreStatsLineFormat locks the -v line the CI cold/warm gate greps.
func TestStoreStatsLineFormat(t *testing.T) {
	m := NewTrialMemo()
	m.Put(1, TrialResult{})
	m.Get(1)
	m.Get(2)
	line := StoreStatsLine(m)
	if !strings.Contains(line, "1 hits, 1 misses (1 simulations)") {
		t.Fatalf("stats line drifted from the documented format: %q", line)
	}
	// The cells suffix appears only after a sweep looked an interval up.
	if strings.Contains(line, "cell intervals") {
		t.Fatalf("stats line reports a cells tier that saw no lookup: %q", line)
	}
}

// TestStoreStatsLineSubtractsShared: a miss answered from a seed-free
// slot simulated nothing, so the simulation count is misses minus shared
// repetitions, and the shared count rides as an append-only suffix. A
// shared count above the store's misses also counts runs outside this
// store and is not subtracted.
func TestStoreStatsLineSubtractsShared(t *testing.T) {
	s := resultstore.Stats{Hits: 2, Misses: 10}
	for _, c := range []struct {
		shared uint64
		want   []string
	}{
		{0, []string{"2 hits, 10 misses (10 simulations)"}},
		{4, []string{"2 hits, 10 misses (6 simulations)", ", 4 repetitions shared"}},
		{12, []string{"2 hits, 10 misses (10 simulations)", ", 12 repetitions shared"}},
	} {
		line := storeStatsLine(s, c.shared, resultstore.Stats{})
		for _, want := range c.want {
			if !strings.Contains(line, want) {
				t.Errorf("shared=%d: line %q lacks %q", c.shared, line, want)
			}
		}
		if c.shared == 0 && strings.Contains(line, "shared") {
			t.Errorf("shared=0: line %q mentions sharing; the base line must stay byte-stable", line)
		}
	}
}

// TestStoreStatsLineReuseCounters: once the process has deployed trials,
// the -v line reports the reuse counters as append-only suffixes, with the
// documented base prefix intact in front of them.
func TestStoreStatsLineReuseCounters(t *testing.T) {
	m := NewTrialMemo()
	if _, err := RunFigure(3, Config{Quick: true, Reps: 2, Seed: 3, Executor: Pool{Workers: 1}, Memo: m}); err != nil {
		t.Fatal(err)
	}
	line := StoreStatsLine(m)
	if !strings.HasPrefix(line, "store: ") || !strings.Contains(line, " bytes on disk") {
		t.Fatalf("base stats line lost its documented shape: %q", line)
	}
	for _, want := range []string{" deployments reused (", " built)", " topology index cache hits (", " misses)"} {
		if !strings.Contains(line, want) {
			t.Fatalf("stats line is missing the %q reuse counter: %q", want, line)
		}
	}
}
