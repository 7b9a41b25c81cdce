// Package storecli wires the durable-trial-store CLI surface shared by
// pinsim and pinsweep — the -store / -merge / -shard / -store-degraded /
// -v flags — into an experiments.Config, so the commands cannot drift
// apart in store semantics.
package storecli

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/resultstore"
)

// Degraded-mode policies for an unusable -store directory.
const (
	// DegradedFail (the default) fails fast at open with a clear message,
	// before any simulation time is spent.
	DegradedFail = "fail"
	// DegradedAllow demotes the store to its in-memory tier with one
	// warning line: the run completes with identical output, it just is
	// not incremental.
	DegradedAllow = "allow"
)

// Options are the parsed values of the shared flags.
type Options struct {
	// Store is the durable trial store directory ("" = none).
	Store string
	// Merge is the comma list of store directories to load before running.
	Merge string
	// Shard is the "i/n" grid partition to run ("" = the whole grid).
	Shard string
	// Degraded is the -store-degraded policy for an unusable store
	// directory: DegradedFail ("" or "fail") or DegradedAllow ("allow").
	Degraded string
	// Verbose prints the store statistics line at finish.
	Verbose bool
}

// Apply opens the store (or an in-memory memo when only -merge/-v need
// one), loads merged stores, and wraps cfg.Executor in the shard executor
// (nil runs the shard on Pool{}). It reports
// whether the run is sharded — sharded runs should not render their
// partial figures — and returns a finish func to defer: it prints the -v
// statistics line (prefixed "prog: ") and closes the store.
func Apply(prog string, cfg *experiments.Config, o Options) (sharded bool, finish func(), err error) {
	var storeOpts []resultstore.Option
	switch o.Degraded {
	case "", DegradedFail:
	case DegradedAllow:
		storeOpts = append(storeOpts, resultstore.WithDegradedFallback(true))
	default:
		return false, nil, fmt.Errorf("%s: -store-degraded=%q (want %q or %q)", prog, o.Degraded, DegradedFail, DegradedAllow)
	}
	if o.Store != "" {
		ts, err := experiments.OpenTrialStore(o.Store, storeOpts...)
		if err != nil {
			return false, nil, fmt.Errorf("%w\n%s: fix the -store path, or pass -store-degraded=%s to run without persistence", err, prog, DegradedAllow)
		}
		cfg.Memo = ts
	} else if o.Merge != "" || o.Verbose {
		cfg.Memo = experiments.NewTrialMemo()
	}
	if o.Merge != "" {
		if err := experiments.MergeTrialStores(cfg.Memo, splitList(o.Merge)...); err != nil {
			return false, nil, err
		}
	}
	if o.Shard != "" {
		idx, count, err := experiments.ParseShard(o.Shard)
		if err != nil {
			return false, nil, err
		}
		cfg.Executor = experiments.Shard{Index: idx, Count: count, Inner: cfg.Executor}
		if o.Store == "" {
			fmt.Fprintf(os.Stderr, "%s: warning: -shard without -store discards the shard's results when the process exits\n", prog)
		}
		sharded = true
	}
	st := cfg.Memo
	finish = func() {
		if st == nil {
			return
		}
		if o.Verbose {
			fmt.Fprintln(os.Stderr, prog+": "+experiments.StoreStatsLine(st))
		}
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: store close: %v\n", prog, err)
		}
	}
	return sharded, finish, nil
}

// splitList splits a comma list, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
