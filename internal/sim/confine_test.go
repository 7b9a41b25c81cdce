package sim

import (
	"strings"
	"testing"
)

func TestSubstreamIsPureAndDecorrelated(t *testing.T) {
	a := Substream(42, 1, 2, 3)
	b := Substream(42, 1, 2, 3)
	if a != b {
		t.Fatal("Substream must be a pure function of its inputs")
	}
	// Distinct coordinate paths must give distinct streams (the grid of an
	// experiment run maps (series, cell, rep) triples through this).
	seen := map[uint64][3]uint64{}
	for si := uint64(0); si < 8; si++ {
		for ci := uint64(0); ci < 8; ci++ {
			for rep := uint64(0); rep < 8; rep++ {
				s := Substream(42, si, ci, rep)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) and %v", si, ci, rep, prev)
				}
				seen[s] = [3]uint64{si, ci, rep}
			}
		}
	}
	if Substream(42, 1) == Substream(43, 1) {
		t.Fatal("different base seeds must give different substreams")
	}
	if Substream(42) == Substream(42, 0) {
		t.Fatal("a coordinate must change the stream even when it is zero-valued")
	}
}

func TestSubstreamsAreIndependentRNGs(t *testing.T) {
	// Adjacent substreams must not produce correlated draws.
	r1 := NewRNG(Substream(7, 0))
	r2 := NewRNG(Substream(7, 1))
	same := 0
	for i := 0; i < 64; i++ {
		if r1.Uint64() == r2.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("adjacent substreams collided on %d/64 draws", same)
	}
}

func TestEngineRejectsReentrantRun(t *testing.T) {
	// An event callback that re-enters the executor is the deterministic
	// stand-in for two goroutines sharing one engine: both trip the same
	// confinement guard.
	e := NewEngine()
	after(e, Millisecond, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("re-entrant Run must panic")
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "goroutine-confined") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		e.Run(0)
	})
	e.Run(0)
}

func TestEngineGuardReleasesAfterRun(t *testing.T) {
	e := NewEngine()
	after(e, Millisecond, func() {})
	e.Run(0)
	// The guard must be released: subsequent runs on the owning goroutine
	// are the normal mode of use.
	after(e, Millisecond, func() {})
	if !e.Step() {
		t.Fatal("Step after Run must still execute events")
	}
	e.RunUntil(Second)
	if e.Now() != Second {
		t.Fatalf("clock at %v, want %v", e.Now(), Second)
	}
}
