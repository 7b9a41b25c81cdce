package resultstore

// The index of a reopened Disk has two tiers: the records the open scan
// loaded, and the records this process put. These tests hold the pair to
// the counts a single table gave for the same calls, and check that the
// loaded tier is safe to read while other goroutines write.

import (
	"bytes"
	"sync"
	"testing"
)

// reopenWith persists keys 0..n-1 (value k+100) and reopens the store.
func reopenWith(t *testing.T, n int) *Disk[uint64] {
	t.Helper()
	dir := t.TempDir()
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	for k := uint64(0); k < uint64(n); k++ {
		d.Put(k, k+100)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTest(t, dir, &warn)
	t.Cleanup(func() {
		re.Close()
		if warn.Len() != 0 {
			t.Errorf("unexpected warnings: %s", warn.String())
		}
	})
	return re
}

// TestTwoTierCountersMatchOneTable drives one fixed sequence of Get,
// GetOrCompute, Put and PutBatch calls over a reopened store: hits on
// loaded keys and on keys this process put, misses, and re-puts of loaded
// keys. Its counters must be the ones the single-table index gave for the
// same sequence, and values must come back from whichever tier holds them.
func TestTwoTierCountersMatchOneTable(t *testing.T) {
	d := reopenWith(t, 20)
	get := func(key, want uint64, wantOK bool) {
		t.Helper()
		if v, ok := d.Get(key); ok != wantOK || v != want {
			t.Fatalf("Get(%d) = %d, %t; want %d, %t", key, v, ok, want, wantOK)
		}
	}
	for k := uint64(0); k < 10; k++ {
		get(k, k+100, true) // loaded tier
	}
	for k := uint64(100); k < 105; k++ {
		get(k, 0, false)
		d.Put(k, k+1)
		get(k, k+1, true) // this process's tier
	}
	computes := 0
	for _, k := range []uint64{0, 1, 2, 200, 201, 200, 3, 201} {
		want := k + 100
		if k >= 200 {
			want = k * 2
		}
		v, err := d.GetOrCompute(k, func() (uint64, error) { computes++; return k * 2, nil })
		if err != nil || v != want {
			t.Fatalf("GetOrCompute(%d) = %d, %v; want %d", k, v, err, want)
		}
	}
	if computes != 2 {
		t.Fatalf("GetOrCompute computed %d values, want 2 (keys 200 and 201 once each)", computes)
	}
	d.PutBatch([]uint64{6, 7, 300, 301, 100, 300}, []uint64{1, 1, 3, 4, 1, 3})
	get(300, 3, true)
	get(6, 106, true) // the re-put left the loaded value
	get(999, 0, false)

	// The single-table index counted these for the same sequence.
	st := d.Stats()
	if st.Hits != 23 || st.Misses != 8 || st.Entries != 29 || st.Loaded != 20 || st.Appended != 9 {
		t.Fatalf("stats = %d hits, %d misses, %d entries, %d loaded, %d appended; want 23, 8, 29, 20, 9",
			st.Hits, st.Misses, st.Entries, st.Loaded, st.Appended)
	}
}

// TestRePutOfLoadedKeyAppendsNothing: a loaded record is already durable,
// so putting its key again, singly or in a batch, writes no byte.
func TestRePutOfLoadedKeyAppendsNothing(t *testing.T) {
	d := reopenWith(t, 8)
	before := d.Stats()
	d.Put(3, 103)
	d.Put(4, 999)
	d.PutBatch([]uint64{0, 1, 7}, []uint64{100, 101, 107})
	if _, err := d.GetOrCompute(5, func() (uint64, error) { t.Fatal("computed a loaded key"); return 0, nil }); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.Appended != 0 || after.DiskBytes != before.DiskBytes || after.Entries != before.Entries {
		t.Fatalf("re-puts of loaded keys changed the store: before %+v, after %+v", before, after)
	}
}

// TestLoadedTierConcurrentGetPut: goroutines reading loaded keys while
// others put new ones see every loaded value and count every hit. Run it
// under -race.
func TestLoadedTierConcurrentGetPut(t *testing.T) {
	const loaded, readers, writers, rounds = 64, 4, 2, 200
	d := reopenWith(t, loaded)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := uint64((g*7 + i) % loaded)
				if v, ok := d.Get(k); !ok || v != k+100 {
					t.Errorf("Get(%d) = %d, %t during puts", k, v, ok)
					return
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := uint64(1000 + g*rounds + i)
				d.Put(k, k)
				if i%16 == 0 {
					d.PutBatch([]uint64{k, uint64(i % loaded)}, []uint64{k, 0})
				}
			}
		}(g)
	}
	wg.Wait()
	st := d.Stats()
	if st.Hits != readers*rounds || st.Misses != 0 || st.Entries != loaded+writers*rounds || st.Appended != writers*rounds {
		t.Fatalf("stats = %+v, want %d hits, %d entries and %d appended", st, readers*rounds, loaded+writers*rounds, writers*rounds)
	}
}
