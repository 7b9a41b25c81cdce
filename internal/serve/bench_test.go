package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkServeWarm measures the full warm request path — request JSON
// decode, key derivation, sharded cache read, response write — without
// socket overhead. This is the per-request cost bounding the daemon's warm
// throughput ceiling; the pinservd -selftest load gate measures the same
// path through a real listener.
func BenchmarkServeWarm(b *testing.B) {
	s := NewServer(Options{Config: experiments.Config{Quick: true, Reps: 2, Seed: 42, Executor: experiments.Pool{Workers: 1}}})
	const body = `{"name":"fig3"}`
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("prewarm: %d %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
	if s.warm.Load() != uint64(b.N) {
		b.Fatalf("warm = %d, want %d", s.warm.Load(), b.N)
	}
}
