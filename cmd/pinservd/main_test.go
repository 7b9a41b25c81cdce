package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the daemon's connection timeouts: bounded
// header, body and idle reads, and no write timeout (a cold paper-scale
// /run may simulate for longer than any fixed bound).
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.Handler == nil {
		t.Fatal("handler not set")
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", hs.ReadHeaderTimeout, 10 * time.Second},
		{"ReadTimeout", hs.ReadTimeout, 30 * time.Second},
		{"IdleTimeout", hs.IdleTimeout, 120 * time.Second},
		{"WriteTimeout", hs.WriteTimeout, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
