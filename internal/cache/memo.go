package cache

// This file is the other meaning of "cache" in this repository: not the
// modeled CPU-cache penalty, but a concurrency-safe memoization store for
// simulation results. Experiment sweeps key each trial by a hash of its
// full configuration fingerprint plus its substream seed; repeated or
// overlapping sweeps then skip every cell that has already been simulated.
//
// The table is sharded: 64 independently-locked maps, with each key routed
// to its shard by a bit-mix of the key itself. Keys here are already
// FNV-1a outputs of the canonical trial-key encoder (resultstore.Enc) or
// of a fingerprint string, so their bits are uniform; the extra Fibonacci
// multiply only guards callers that use small hand-picked integers as
// keys. Sharding is what lets warm lookups scale with cores — the serving
// daemon's 10k req/s warm path is N goroutines doing RLock-per-shard reads
// instead of serializing on one table-wide mutex — while the hit/miss
// audit stays exact through per-shard atomic counters.

import (
	"sync"
	"sync/atomic"
)

// fnv64Offset/fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset uint64 = 0xcbf29ce484222325
	fnv64Prime  uint64 = 0x100000001b3
)

// HashKey collapses a textual configuration fingerprint into a 64-bit
// memoization key (FNV-1a). Collisions are theoretically possible but
// vanishingly rare at sweep scale (birthday bound ≈ n²/2⁶⁵); callers that
// cannot tolerate them should key a Memo by the full string instead.
func HashKey(fingerprint string) uint64 {
	h := fnv64Offset
	for i := 0; i < len(fingerprint); i++ {
		h ^= uint64(fingerprint[i])
		h *= fnv64Prime
	}
	return h
}

// HashBytes is HashKey for a byte slice — the same FNV-1a stream, so a
// fingerprint hashes identically whether it travels as string or bytes.
// The durable result store uses it both for canonical-encoding keys and
// for record checksums.
func HashBytes(p []byte) uint64 { return HashBytesFrom(fnv64Offset, p) }

// HashBytesFrom continues an FNV-1a stream whose state is h over p:
// HashBytesFrom(HashBytes(a), b) is HashBytes of a followed by b, so a
// key whose long suffix is shared can hash that suffix from where its
// own prefix left off instead of building the concatenation.
func HashBytesFrom(h uint64, p []byte) uint64 {
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= fnv64Prime
	}
	return h
}

// HashBytesFrom4 is four HashBytesFrom calls in one pass: lane i of the
// result is HashBytesFrom(h[i], p_i), bit for bit, for any lengths. FNV-1a
// is one serial chain of multiplies per stream, so a single stream waits
// on each multiply; four independent chains interleaved keep the
// multiplier busy. The lanes run together over the shortest input, and
// each lane's remainder runs alone. The durable store's open scan
// checksums four framed records per call.
func HashBytesFrom4(h [4]uint64, p0, p1, p2, p3 []byte) [4]uint64 {
	n := min(len(p0), len(p1), len(p2), len(p3))
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	q0, q1, q2, q3 := p0[:n], p1[:n], p2[:n], p3[:n]
	for i := range q0 {
		h0 = (h0 ^ uint64(q0[i])) * fnv64Prime
		h1 = (h1 ^ uint64(q1[i])) * fnv64Prime
		h2 = (h2 ^ uint64(q2[i])) * fnv64Prime
		h3 = (h3 ^ uint64(q3[i])) * fnv64Prime
	}
	return [4]uint64{
		HashBytesFrom(h0, p0[n:]),
		HashBytesFrom(h1, p1[n:]),
		HashBytesFrom(h2, p2[n:]),
		HashBytesFrom(h3, p3[n:]),
	}
}

// memoShards is the shard count: a power of two comfortably above any
// plausible worker count, so concurrent warm readers almost never share a
// lock even when the key population is skewed.
const memoShards = 64

// shardOf routes a key to its shard: a Fibonacci multiply whose top bits
// select the shard. FNV-hashed keys are already uniform; the multiply
// keeps sequential or small-integer keys (tests, hand-rolled callers) from
// piling into shard 0.
func shardOf(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> (64 - 6)
}

// memoShard is one lock's worth of the table. Hit/miss counters are
// atomics so the hot read path takes only an RLock; the trailing pad
// spaces shards out so two cores hammering adjacent shards do not false-
// share a cache line.
type memoShard[V any] struct {
	mu     sync.RWMutex
	m      map[uint64]V
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [80]byte
}

// Memo is a concurrency-safe memoization table from 64-bit keys to computed
// values. Any number of worker goroutines may Get and Put concurrently;
// two workers racing to fill the same key is benign for deterministic
// computations (both store the identical value).
type Memo[V any] struct {
	shards [memoShards]memoShard[V]
}

// NewMemo returns an empty memoization table.
func NewMemo[V any]() *Memo[V] {
	c := &Memo[V]{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]V)
	}
	return c
}

// Get returns the stored value for key. Every call counts as a hit or a
// miss, so Hits/Misses audit exactly how much simulation a sweep skipped.
func (c *Memo[V]) Get(key uint64) (V, bool) {
	s := &c.shards[shardOf(key)]
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Put stores the value for key, overwriting any previous entry.
func (c *Memo[V]) Put(key uint64, v V) {
	s := &c.shards[shardOf(key)]
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// Contains reports whether key is stored without counting a hit or a miss —
// the probe the durable store's append-dedup uses, which must not skew the
// hit/miss audit.
func (c *Memo[V]) Contains(key uint64) bool {
	s := &c.shards[shardOf(key)]
	s.mu.RLock()
	_, ok := s.m[key]
	s.mu.RUnlock()
	return ok
}

// Range calls fn for every stored entry until fn returns false. Iteration
// order is unspecified (shard then map order); fn must not call back into
// the memo.
func (c *Memo[V]) Range(fn func(key uint64, v V) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// Len returns the number of stored entries.
func (c *Memo[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Hits returns how many Gets found their key.
func (c *Memo[V]) Hits() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].hits.Load()
	}
	return n
}

// Misses returns how many Gets did not find their key — for a memoized
// sweep, exactly the number of trials that actually ran.
func (c *Memo[V]) Misses() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].misses.Load()
	}
	return n
}
