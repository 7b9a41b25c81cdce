package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestFigAllQuickMatchesGolden locks the byte-exact output of
// `pinsim -fig all -quick` (default seed 42) against the fingerprint
// captured from the pre-optimization event kernel and runqueues. Any
// change to event ordering, runqueue tie-breaks, RNG consumption or
// rendering shows up here as a diff — determinism refactors must keep this
// test green, and intentional model changes must regenerate the golden
// file (`go build ./cmd/pinsim && ./pinsim -fig all -quick >
// internal/experiments/testdata/fig_all_quick.golden`) and say so in the
// PR.
func TestFigAllQuickMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six figures (~2s)")
	}
	golden, err := os.ReadFile("testdata/fig_all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// Pool{Workers: 1} pins the serial loop; TestFigAllQuickWorkerInvariant
	// covers the parallel runner at 2 and 8 workers against the same bytes.
	cfg := Config{Seed: 42, Quick: true, Executor: Pool{Workers: 1}}
	for n := 3; n <= 8; n++ {
		f, err := RunFigure(n, cfg)
		if err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		f.RenderText(&buf)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("-fig all -quick output diverged from the golden fingerprint\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
			shortHash(buf.Bytes()), shortHash(golden), firstDiff(buf.Bytes(), golden))
	}
}

// TestFigAllQuickWorkerInvariant asserts the parallel runner cannot change
// the golden fingerprint either: the full `-fig all -quick` byte stream —
// which exercises the steal-domain fast path under every platform series —
// must match the committed golden file at 2 and 8 workers just as the
// serial path does (workers=1 ≡ golden is already established by
// TestFigAllQuickMatchesGolden, so it is not re-rendered here).
func TestFigAllQuickWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six figures per worker count")
	}
	golden, err := os.ReadFile("testdata/fig_all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		var buf bytes.Buffer
		for n := 3; n <= 8; n++ {
			f, err := RunFigure(n, Config{Seed: 42, Quick: true, Executor: Pool{Workers: workers}})
			if err != nil {
				t.Fatalf("workers=%d figure %d: %v", workers, n, err)
			}
			f.RenderText(&buf)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("workers=%d diverged from the golden fingerprint\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
				workers, shortHash(buf.Bytes()), shortHash(golden), firstDiff(buf.Bytes(), golden))
		}
	}
}

// TestFigAllQuickStoreInvariant asserts the durable trial store cannot
// change the golden fingerprint either: the full `-fig all -quick` byte
// stream must match the committed golden when every trial is persisted to
// a cold disk store, and again when a fresh store handle (a second
// process, as far as the store can tell) replays all of it — with zero
// simulations the second time.
func TestFigAllQuickStoreInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six figures twice")
	}
	golden, err := os.ReadFile("testdata/fig_all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	renderAll := func(st TrialStore) []byte {
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

	cold, err := OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(cold); !bytes.Equal(got, golden) {
		t.Fatalf("cold store run diverged from the golden fingerprint\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
			shortHash(got), shortHash(golden), firstDiff(got, golden))
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := OpenTrialStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if got := renderAll(warm); !bytes.Equal(got, golden) {
		t.Fatalf("warm store run diverged from the golden fingerprint\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
			shortHash(got), shortHash(golden), firstDiff(got, golden))
	}
	if misses := warm.Stats().Misses; misses != 0 {
		t.Fatalf("warm store run simulated %d trials, want 0", misses)
	}
}

// matchGolden fails t unless got is byte-identical to testdata/name.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("output diverged from testdata/%s\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
			name, shortHash(got), shortHash(golden), firstDiff(got, golden))
	}
}

// TestSweepQuickMatchesGolden locks the byte-exact text, CSV and JSON
// output of `pinsweep -quick -reps 2 -cores 2,16 -workloads ffmpeg,mpi
// -mem 0,32` (default seed 42 and series), JSON encoded as pinsweep does.
// Regenerate with that command and `-format text|csv|json` into
// testdata/sweep_quick_{text,csv,json}.golden, and say so in the change.
func TestSweepQuickMatchesGolden(t *testing.T) {
	res, err := Sweep(Config{Seed: 42, Quick: true, Reps: 2, Executor: Pool{Workers: 2}}, SweepSpec{
		Cores: []int{2, 16}, Workloads: []string{"ffmpeg", "mpi"}, MemGB: []int{0, 32}, Reps: 2,
	})
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
}

// TestCHRQuickMatchesGolden locks the byte-exact output of
// `pinsim -chr -quick` (default seed 42); regenerate it with that command
// into testdata/chr_quick.golden, and say so in the change.
func TestCHRQuickMatchesGolden(t *testing.T) {
	bands, err := RunCHRSweep(Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderCHR(&buf, bands)
	matchGolden(t, "chr_quick.golden", buf.Bytes())
}

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
