package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestHashKeyStableAndDistinct(t *testing.T) {
	if HashKey("a|b|c") != HashKey("a|b|c") {
		t.Fatal("HashKey must be deterministic")
	}
	// FNV-1a reference value for the empty string.
	if got := HashKey(""); got != 0xcbf29ce484222325 {
		t.Fatalf("HashKey(\"\") = %#x, want FNV-1a offset basis", got)
	}
	seen := map[uint64]string{}
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("trial|%d|seed=%d", i%100, i)
		h := HashKey(k)
		if prev, dup := seen[h]; dup && prev != k {
			t.Fatalf("collision between %q and %q", prev, k)
		}
		seen[h] = k
	}
}

func TestMemoGetPutAndCounters(t *testing.T) {
	m := NewMemo[float64]()
	if _, ok := m.Get(1); ok {
		t.Fatal("empty memo must miss")
	}
	m.Put(1, 3.5)
	v, ok := m.Get(1)
	if !ok || v != 3.5 {
		t.Fatalf("got %v,%v", v, ok)
	}
	if m.Hits() != 1 || m.Misses() != 1 || m.Len() != 1 {
		t.Fatalf("hits=%d misses=%d len=%d", m.Hits(), m.Misses(), m.Len())
	}
}

func TestMemoConcurrentAccess(t *testing.T) {
	m := NewMemo[int]()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := uint64(i % 50)
				if v, ok := m.Get(key); ok && v != int(key) {
					t.Errorf("key %d holds %d", key, v)
					return
				}
				m.Put(key, int(key))
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != 50 {
		t.Fatalf("len=%d, want 50", m.Len())
	}
	if m.Hits()+m.Misses() != 8*500 {
		t.Fatalf("counter drift: hits=%d misses=%d", m.Hits(), m.Misses())
	}
}

func TestMemoContainsDoesNotCount(t *testing.T) {
	m := NewMemo[int]()
	m.Put(1, 10)
	if !m.Contains(1) || m.Contains(2) {
		t.Fatal("Contains misreports membership")
	}
	if m.Hits() != 0 || m.Misses() != 0 {
		t.Fatalf("Contains skewed the audit: hits=%d misses=%d", m.Hits(), m.Misses())
	}
}

// TestMemoShardDistribution proves the shard router spreads both
// hand-rolled small keys and FNV-hashed keys across the table: no shard
// may stay empty (sequential keys piling into one shard would turn the
// 64-way table back into one mutex) and no shard may hoard more than a
// loose multiple of its fair share.
func TestMemoShardDistribution(t *testing.T) {
	for name, keyFn := range map[string]func(i int) uint64{
		"sequential": func(i int) uint64 { return uint64(i) },
		"fnv":        func(i int) uint64 { return HashKey(fmt.Sprintf("trial|%d", i)) },
	} {
		const n = 64 * 256
		counts := make(map[uint64]int)
		for i := 0; i < n; i++ {
			counts[shardOf(keyFn(i))]++
		}
		if len(counts) != memoShards {
			t.Fatalf("%s keys reached %d of %d shards", name, len(counts), memoShards)
		}
		for shard, c := range counts {
			if c > 4*n/memoShards {
				t.Fatalf("%s keys: shard %d holds %d of %d (>4x fair share)", name, shard, c, n)
			}
		}
	}
}

// TestMemoCountersExactUnderParallelGets pins the audit contract the -v
// stats line and the CI "0 misses (0 simulations)" gates rely on: however
// many goroutines hammer the table, hits+misses equals Get calls exactly
// (per-shard atomics, not racy non-atomic increments).
func TestMemoCountersExactUnderParallelGets(t *testing.T) {
	m := NewMemo[int]()
	const present = 100
	for i := 0; i < present; i++ {
		m.Put(uint64(i), i)
	}
	const workers, gets = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < gets; i++ {
				m.Get(uint64((w*gets + i) % (2 * present))) // half hit, half miss
			}
		}(w)
	}
	wg.Wait()
	if got := m.Hits() + m.Misses(); got != workers*gets {
		t.Fatalf("hits+misses = %d, want %d", got, workers*gets)
	}
	if m.Hits() != workers*gets/2 {
		t.Fatalf("hits = %d, want %d", m.Hits(), workers*gets/2)
	}
}

func TestMemoRangeVisitsEveryEntry(t *testing.T) {
	m := NewMemo[int]()
	for i := 0; i < 10; i++ {
		m.Put(uint64(i), i*i)
	}
	seen := map[uint64]int{}
	m.Range(func(k uint64, v int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 10 || seen[3] != 9 {
		t.Fatalf("Range saw %v", seen)
	}
	n := 0
	m.Range(func(uint64, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range ignored early stop: %d visits", n)
	}
}

// checkHashBytesFrom4 fails unless every lane of HashBytesFrom4 equals the
// single-stream HashBytesFrom of that lane's state and bytes.
func checkHashBytesFrom4(t *testing.T, h [4]uint64, p [4][]byte) {
	t.Helper()
	got := HashBytesFrom4(h, p[0], p[1], p[2], p[3])
	for i := range got {
		if want := HashBytesFrom(h[i], p[i]); got[i] != want {
			t.Fatalf("lane %d (len %d of %d,%d,%d,%d): %#x, want %#x",
				i, len(p[i]), len(p[0]), len(p[1]), len(p[2]), len(p[3]), got[i], want)
		}
	}
}

// TestHashBytesFrom4MatchesHashBytesFrom checks the four-lane kernel
// against four single-stream calls over equal and unequal lengths from 0
// to 300 bytes, from the offset basis and from arbitrary states.
func TestHashBytesFrom4MatchesHashBytesFrom(t *testing.T) {
	buf := make([]byte, 301)
	for i := range buf {
		buf[i] = byte(i*131 + i>>3)
	}
	lens := []int{0, 1, 2, 3, 7, 8, 9, 31, 64, 127, 255, 299, 300}
	states := [][4]uint64{
		{fnv64Offset, fnv64Offset, fnv64Offset, fnv64Offset},
		{0, 1, 0xdeadbeefcafef00d, ^uint64(0)},
	}
	for _, h := range states {
		for _, a := range lens {
			for _, b := range lens {
				// Equal lengths, each lane shortest in turn, and lanes
				// starting at different offsets of the buffer.
				checkHashBytesFrom4(t, h, [4][]byte{buf[:a], buf[:a], buf[:a], buf[:a]})
				checkHashBytesFrom4(t, h, [4][]byte{buf[:a], buf[1 : 1+b], buf[:b], buf[:b]})
				checkHashBytesFrom4(t, h, [4][]byte{buf[:b], buf[:a], buf[:b], buf[1 : 1+b]})
				checkHashBytesFrom4(t, h, [4][]byte{buf[:b], buf[:b], buf[:a], buf[:b]})
				checkHashBytesFrom4(t, h, [4][]byte{buf[:b], buf[:b], buf[1 : 1+b], buf[:a]})
			}
		}
	}
	for n := 0; n <= 300; n++ {
		checkHashBytesFrom4(t, states[1], [4][]byte{buf[:n], buf[:300-n], buf[n/2 : n], buf[n:]})
	}
}

// FuzzHashBytesFrom4 checks the four-lane kernel against four
// single-stream calls for arbitrary states, bytes and lengths.
func FuzzHashBytesFrom4(f *testing.F) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(fnv64Offset, fnv64Offset, fnv64Offset, fnv64Offset, []byte{}, []byte{}, []byte{}, []byte{})
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), []byte("a"), []byte("bc"), []byte(""), []byte("def"))
	f.Add(fnv64Offset, uint64(0), ^uint64(0), uint64(42), long, long[:299], long[1:], long[:17])
	f.Fuzz(func(t *testing.T, h0, h1, h2, h3 uint64, p0, p1, p2, p3 []byte) {
		checkHashBytesFrom4(t, [4]uint64{h0, h1, h2, h3}, [4][]byte{p0, p1, p2, p3})
	})
}
