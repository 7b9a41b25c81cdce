// Package resultstore is the durable, shardable trial-result layer behind
// the experiment runner's memoization. A Store holds computed values keyed
// by 64-bit content hashes (canonical versioned encodings of the full trial
// configuration — see Enc); two tiers implement it:
//
//   - Mem: the in-memory memoization table (cache.Memo behind the Store
//     interface) — exactly the pre-durable behavior, zero overhead added.
//   - Disk: Mem transparently backed by an on-disk content-addressed store:
//     append-only segment files plus an index rebuilt at open, so repeated
//     runs are incremental across processes and shard runs on N machines
//     can be merged into one warm store.
//
// The disk format is crash-safe by construction rather than by locking:
// records are only ever appended, each carries a checksum, and the open
// scan skips anything it cannot prove intact — a torn tail, a flipped
// byte, an undecodable payload (e.g. a wrong schema version) — so the
// worst corruption costs a recomputation, never a wrong figure.
package resultstore

import (
	"sync/atomic"

	"repro/internal/cache"
)

// Store is the pluggable trial-result store: Get/Put keyed by canonical
// content hashes, plus the audit counters the CLIs surface with -v. All
// methods are safe for concurrent use by parallel trial workers.
type Store[V any] interface {
	// Get returns the stored value for key; every call counts as a hit or
	// a miss (for a memoized run, every simulation executed is a miss).
	Get(key uint64) (V, bool)
	// Put stores the value for key. Stores assume deterministic values —
	// two Puts of the same key carry the same value — so racing writers
	// and re-puts are benign.
	Put(key uint64, v V)
	// GetOrCompute is the single warm-or-cold entry point: the stored
	// value on a hit (one sharded read, counted as a hit), otherwise the
	// result of compute, stored before returning (counted as a miss).
	// compute runs outside any store lock, so two goroutines racing on one
	// cold key may both compute — benign for deterministic values; callers
	// that must guarantee exactly-one computation (the serving daemon)
	// wrap this in a singleflight. A compute error is returned unstored.
	GetOrCompute(key uint64, compute func() (V, error)) (V, error)
	// Stats returns the counter snapshot — Get outcomes, resident keys and
	// the disk-tier counters (zero for purely in-memory stores).
	Stats() Stats
	// Close flushes and releases any durable resources; in-memory stores
	// return nil. A Store must not be used after Close.
	Close() error
}

// Stats is a Store's counter snapshot.
type Stats struct {
	// Hits and Misses count Get outcomes; a miss is exactly one
	// recomputation in a memoized run.
	Hits, Misses uint64
	// Entries is the number of distinct keys resident in memory.
	Entries int
	// Loaded is how many durable records the open scan (plus any merges)
	// decoded into the memory tier; Appended how many this process wrote.
	Loaded, Appended uint64
	// Corrupt counts durable records skipped as unprovable: torn tails,
	// checksum failures, undecodable payloads (wrong schema version).
	Corrupt uint64
	// DiskBytes is the on-disk footprint: every segment byte scanned at
	// open plus every byte appended since.
	DiskBytes int64
	// Retries counts I/O attempts repeated after a transient failure or an
	// O_EXCL segment-name collision; Recovered counts operations that
	// ultimately succeeded after at least one retry. Retries with no
	// matching Recovered exhausted the budget and degraded the store.
	Retries, Recovered uint64
	// Unpersisted counts values accepted into the memory tier but never
	// written durably (every Put after degradation, plus the one whose
	// append failure triggered it). They are correct for this run and will
	// be recomputed by the next.
	Unpersisted uint64
	// Warnings is the total routed through the store's rate-limited warner,
	// printed or suppressed.
	Warnings uint64
	// Degraded reports the store demoted itself to memory-only after
	// exhausting retries (or opened that way under WithDegradedFallback on
	// an unusable directory).
	Degraded bool
}

// Mem is the in-memory Store tier: cache.Memo behind the Store interface.
// It is the zero-regression default — NewMem-backed runs behave exactly
// like the raw memo always did.
type Mem[V any] struct {
	memo *cache.Memo[V]
	// merged/corrupt count records a Merge read into (or skipped on the
	// way to) this store, so -v audits merge runs even without a disk tier.
	merged, corrupt atomic.Uint64
}

// NewMem returns an empty in-memory store.
func NewMem[V any]() *Mem[V] {
	return &Mem[V]{memo: cache.NewMemo[V]()}
}

// A nil *Mem behaves as an always-miss, drop-writes store rather than
// panicking: a typed-nil assigned to a Store-interface field (e.g. a
// Config.Memo) slips past the caller's == nil check, and the pointer-typed
// era of that field treated the same mistake as "no memo".

// Get implements Store.
func (m *Mem[V]) Get(key uint64) (V, bool) {
	if m == nil {
		var zero V
		return zero, false
	}
	return m.memo.Get(key)
}

// Put implements Store.
func (m *Mem[V]) Put(key uint64, v V) {
	if m == nil {
		return
	}
	m.memo.Put(key, v)
}

// GetOrCompute implements Store: a warm hit is exactly one sharded memo
// read (the Contains-then-Get double lookup the pre-PR-9 runner paid is
// gone); a miss runs compute and stores the value. On a nil *Mem the value
// is computed but not retained, matching the nil store's drop-writes Get/Put.
func (m *Mem[V]) GetOrCompute(key uint64, compute func() (V, error)) (V, error) {
	if m == nil {
		return compute()
	}
	if v, ok := m.memo.Get(key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	m.memo.Put(key, v)
	return v, nil
}

// Stats implements Store; the disk-tier counters stay zero except for
// records a Merge fed into this store.
func (m *Mem[V]) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		Hits: m.memo.Hits(), Misses: m.memo.Misses(), Entries: m.memo.Len(),
		Loaded: m.merged.Load(), Corrupt: m.corrupt.Load(),
	}
}

// Close implements Store as a no-op.
func (m *Mem[V]) Close() error { return nil }
