package main

// Correctness checks. Each is a pure function of what a run produced, so
// the smoke test can show that it fires on a perturbed input.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/serve"
)

// repoRoot is where BENCHMARK.json and the golden live, relative to the
// working directory (the smoke test runs one level down).
var repoRoot = "."

// checkGolden compares rendered quick figures against the golden.
func checkGolden(got, golden []byte) error {
	if bytes.Equal(got, golden) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(golden) && got[i] == golden[i] {
		i++
	}
	return fmt.Errorf("golden: quick figures at seed %d differ from %s at byte %d", goldenSeed, goldenPath, i)
}

// goldenCheck renders fig3..fig8 quick at seed 42 and checks them
// against the committed golden.
func goldenCheck(workers int) error {
	golden, err := os.ReadFile(filepath.Join(repoRoot, goldenPath))
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	cfg := experiments.Config{Seed: goldenSeed, Quick: true, Executor: experiments.Pool{Workers: workers}}
	var buf bytes.Buffer
	for _, name := range figureNames {
		fig, err := experiments.RunRegistered(name, cfg)
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		fig.RenderText(&buf)
	}
	return checkGolden(buf.Bytes(), golden)
}

// checkDigest compares a render's sha256 with a recorded digest.
func checkDigest(render []byte, want string) error {
	sum := sha256.Sum256(render)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("digest: paper figures at seed %d hash to %s, want %s", goldenSeed, got, want)
	}
	return nil
}

// checkSameRender compares a repeated render with the first one.
func checkSameRender(what string, got, first []byte) error {
	if !bytes.Equal(got, first) {
		return fmt.Errorf("%s renders differently from its first run", what)
	}
	return nil
}

// checkColdStore checks a pass that filled a fresh store: every trial
// missed and was appended, nothing was corrupt or lost to degradation, and
// a reopen loaded every record.
func checkColdStore(st resultstore.Stats, reloaded uint64, trials int) error {
	n := uint64(trials)
	switch {
	case st.Misses != n || st.Appended != n:
		return fmt.Errorf("cold store: %d misses and %d appended, want %d each", st.Misses, st.Appended, n)
	case st.Corrupt != 0:
		return fmt.Errorf("cold store: %d corrupt records", st.Corrupt)
	case st.Degraded:
		return fmt.Errorf("cold store: degraded to memory-only")
	case reloaded != n:
		return fmt.Errorf("cold store: reopen loaded %d records, want %d", reloaded, n)
	}
	return nil
}

// checkWarmStore checks one replay: no trial was simulated.
func checkWarmStore(st resultstore.Stats) error {
	if st.Misses != 0 {
		return fmt.Errorf("warm store: %d misses on a replay, want 0", st.Misses)
	}
	if st.Corrupt != 0 || st.Degraded {
		return fmt.Errorf("warm store: %d corrupt records, degraded %v", st.Corrupt, st.Degraded)
	}
	return nil
}

// checkResponse checks one /run response against what it should be.
func checkResponse(status int, source string, body []byte, wantSource string, wantBody []byte) error {
	switch {
	case status != 200:
		return fmt.Errorf("serve: status %d, want 200", status)
	case source != wantSource:
		return fmt.Errorf("serve: %s %q, want %q", serve.SourceHeader, source, wantSource)
	case wantBody != nil && !bytes.Equal(body, wantBody):
		return fmt.Errorf("serve: %s body differs from the pre-warm body", source)
	}
	return nil
}

// checkServeStats checks the daemon's counters after the load: every
// pre-warm and cold request simulated once, nothing shed.
func checkServeStats(st serve.StatsJSON, prewarmed, cold int) error {
	if want := uint64(prewarmed + cold); st.Simulated != want {
		return fmt.Errorf("statsz: simulated %d, want %d pre-warm + %d cold", st.Simulated, prewarmed, cold)
	}
	if st.Shed != 0 {
		return fmt.Errorf("statsz: shed %d requests", st.Shed)
	}
	return nil
}
