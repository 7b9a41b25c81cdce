package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// End-to-end degradation contract: whatever the store's filesystem does —
// transient faults, a read-only disk, a crash mid-run — the rendered
// figure bytes must stay identical to the committed golden. The store is
// an accelerator; its failure modes are only allowed to cost persistence,
// never output.

// renderAllQuick renders figures 3..8 at the golden configuration through
// the given store.
func renderAllQuick(t *testing.T, st TrialStore) []byte {
	t.Helper()
	var buf bytes.Buffer
	for n := 3; n <= 8; n++ {
		f, err := RunFigure(n, Config{Seed: 42, Quick: true, Executor: Pool{Workers: 2}, Memo: st})
		if err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		f.RenderText(&buf)
	}
	return buf.Bytes()
}

// mustGolden loads the committed -fig all -quick fingerprint.
func mustGolden(t *testing.T) []byte {
	t.Helper()
	golden, err := os.ReadFile("testdata/fig_all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestFigAllQuickFaultyStoreInvariant: a store limping through a transient
// fault schedule (failed writes, short writes, failed opens) retries its
// way to a fully-persisted run with golden-identical bytes.
func TestFigAllQuickFaultyStoreInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six figures")
	}
	golden := mustGolden(t)
	ffs := resultstore.NewFaultFS(nil, resultstore.FaultSpec{
		Seed: 42, FailWriteEvery: 7, ShortWriteEvery: 11, FailOpEvery: 13,
	})
	var warn bytes.Buffer
	st, err := OpenTrialStore(t.TempDir(),
		resultstore.WithFS(ffs),
		resultstore.WithWarnWriter(&warn),
		resultstore.WithSleep(func(time.Duration) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if got := renderAllQuick(t, st); !bytes.Equal(got, golden) {
		t.Fatalf("faulty-store run diverged from the golden fingerprint\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
			shortHash(got), shortHash(golden), firstDiff(got, golden))
	}
	stats := st.Stats()
	if stats.Degraded {
		t.Fatalf("store degraded under a transient-only schedule: %+v\n%s", stats, warn.String())
	}
	if stats.Retries == 0 || stats.Recovered == 0 {
		t.Fatalf("schedule injected %d faults but the store retried %d (recovered %d)",
			ffs.Injected(), stats.Retries, stats.Recovered)
	}
	if stats.Appended == 0 || stats.Unpersisted != 0 {
		t.Fatalf("faulty run did not persist everything: %+v", stats)
	}
}

// TestFigAllQuickDegradedStoreInvariant: on a filesystem that permanently
// refuses writes (the read-only/full-disk shape), the run completes with
// golden-identical bytes, one degradation warning, and every result held
// in the memory tier.
func TestFigAllQuickDegradedStoreInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six figures")
	}
	golden := mustGolden(t)
	ffs := resultstore.NewFaultFS(nil, resultstore.FaultSpec{FailWriteEvery: 1, Permanent: true})
	var warn bytes.Buffer
	st, err := OpenTrialStore(t.TempDir(),
		resultstore.WithFS(ffs),
		resultstore.WithWarnWriter(&warn),
		resultstore.WithSleep(func(time.Duration) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if got := renderAllQuick(t, st); !bytes.Equal(got, golden) {
		t.Fatalf("degraded-store run diverged from the golden fingerprint\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
			shortHash(got), shortHash(golden), firstDiff(got, golden))
	}
	stats := st.Stats()
	if !stats.Degraded || stats.Unpersisted == 0 || stats.Entries == 0 {
		t.Fatalf("store should have demoted to memory and kept serving: %+v", stats)
	}
	if got := strings.Count(warn.String(), "degraded to memory-only"); got != 1 {
		t.Fatalf("%d degradation warnings, want exactly 1:\n%s", got, warn.String())
	}
}

// TestFigAllQuickCrashMidRunInvariant: a filesystem that dies partway
// through the sweep costs persistence of the tail, not correctness — the
// bytes stay golden, and a clean re-open replays exactly the acknowledged
// records.
func TestFigAllQuickCrashMidRunInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six figures")
	}
	golden := mustGolden(t)
	dir := t.TempDir()
	ffs := resultstore.NewFaultFS(nil, resultstore.FaultSpec{CrashAfterBytes: 40_000})
	var warn bytes.Buffer
	st, err := OpenTrialStore(dir,
		resultstore.WithFS(ffs),
		resultstore.WithWarnWriter(&warn),
		resultstore.WithSleep(func(time.Duration) {}))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAllQuick(t, st); !bytes.Equal(got, golden) {
		t.Fatalf("crash-mid-run output diverged from the golden fingerprint\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
			shortHash(got), shortHash(golden), firstDiff(got, golden))
	}
	stats := st.Stats()
	st.Close()
	if !stats.Degraded || !ffs.Crashed() {
		t.Fatalf("the crash point was never reached: %+v", stats)
	}

	var rewarn bytes.Buffer
	re, err := openTrialStoreWarn(dir, &rewarn)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if loaded := re.Stats().Loaded; loaded != stats.Appended {
		t.Fatalf("reopen loaded %d records, %d were acknowledged before the crash\n%s",
			loaded, stats.Appended, rewarn.String())
	}
}
