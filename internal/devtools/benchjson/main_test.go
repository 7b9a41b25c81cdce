package main

import (
	"strings"
	"testing"
)

func TestBestNsPerOp(t *testing.T) {
	out := `goos: linux
BenchmarkMemoHit-2          	12345678	        81.5 ns/op
BenchmarkMemoHitParallel-2  	12345678	        90.0 ns/op
BenchmarkMemoHit-2          	12345678	        79.25 ns/op
BenchmarkMemoHit            	12345678	        80.0 ns/op
PASS`
	if got, err := bestNsPerOp(out, "./internal/experiments", "MemoHit"); err != nil || got != 79.25 {
		t.Fatalf("bestNsPerOp(MemoHit) = %v, %v; want 79.25", got, err)
	}
	_, err := bestNsPerOp(out, "./internal/experiments", "StoreHit")
	if err == nil || !strings.Contains(err.Error(), "StoreHit") || !strings.Contains(err.Error(), "./internal/experiments") {
		t.Fatalf("missing benchmark: err = %v, want one naming StoreHit and its package", err)
	}
}
