package resultstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// u64Codec is the test codec: a version byte plus one fixed-width uint64.
type u64Codec struct{}

const u64Schema = 9

func (u64Codec) Append(dst []byte, v uint64) []byte {
	dst = append(dst, u64Schema)
	return binary.LittleEndian.AppendUint64(dst, v)
}

func (u64Codec) Decode(p []byte) (uint64, error) {
	if len(p) != 9 {
		return 0, fmt.Errorf("record is %d bytes, want 9", len(p))
	}
	if p[0] != u64Schema {
		return 0, fmt.Errorf("schema %d, want %d", p[0], u64Schema)
	}
	return binary.LittleEndian.Uint64(p[1:]), nil
}

func openTest(t *testing.T, dir string, warn *bytes.Buffer) *Disk[uint64] {
	t.Helper()
	d, err := Open[uint64](dir, u64Codec{}, WithWarnWriter(warn))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskRoundTrip: a second process (re-open) sees everything the first
// persisted, with the audit counters telling the story.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	for k := uint64(0); k < 100; k++ {
		d.Put(k, k*3)
	}
	if st := d.Stats(); st.Appended != 100 || st.Loaded != 0 {
		t.Fatalf("cold stats = %+v, want 100 appended", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTest(t, dir, &warn)
	defer d2.Close()
	st := d2.Stats()
	if st.Loaded != 100 || st.Entries != 100 || st.Corrupt != 0 {
		t.Fatalf("warm stats = %+v, want 100 loaded entries", st)
	}
	if st.DiskBytes == 0 {
		t.Fatal("warm store reports 0 bytes on disk")
	}
	for k := uint64(0); k < 100; k++ {
		v, ok := d2.Get(k)
		if !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d, %t", k, v, ok)
		}
	}
	if d2.Hits() != 100 || d2.Misses() != 0 {
		t.Fatalf("hits/misses = %d/%d, want 100/0", d2.Hits(), d2.Misses())
	}
	if warn.Len() != 0 {
		t.Fatalf("unexpected warnings: %s", warn.String())
	}
}

// TestDiskPutIsIdempotent: re-puts (merge overlaps, racing workers) do not
// bloat the segment.
func TestDiskPutIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	d.Put(7, 42)
	d.Put(7, 42)
	if st := d.Stats(); st.Appended != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 appended entry", st)
	}
	d.Close()
}

// TestPutBatchMatchesPutBytes: the group-commit path encodes exactly the
// records N single Puts would — the segment files are byte-identical — so
// a reader cannot tell which path wrote a store.
func TestPutBatchMatchesPutBytes(t *testing.T) {
	var warn bytes.Buffer
	one := t.TempDir()
	d1 := openTest(t, one, &warn)
	for k := uint64(0); k < 20; k++ {
		d1.Put(k, k*3)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	batched := t.TempDir()
	d2 := openTest(t, batched, &warn)
	keys := make([]uint64, 20)
	vals := make([]uint64, 20)
	for k := range keys {
		keys[k], vals[k] = uint64(k), uint64(k)*3
	}
	d2.PutBatch(keys, vals)
	if st := d2.Stats(); st.Appended != 20 || st.Entries != 20 {
		t.Fatalf("batched stats = %+v, want 20 appended entries", st)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(segPath(t, one))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segPath(t, batched))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("batched segment differs from put-by-put segment: %d vs %d bytes", len(b), len(a))
	}
}

// TestPutBatchIsOneWrite pins the group-commit syscall shape the same way
// TestWithSyncEveryCountsDown pins Put's: a 6-record batch at sync-every-2
// is 1 segment-create open + 1 magic write + 1 record write + 1 fsync = 4
// operations, where the same records through Put cost 11.
func TestPutBatchIsOneWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS(), FaultSpec{})
	var warn bytes.Buffer
	d, err := Open[uint64](dir, u64Codec{}, WithFS(ffs), WithWarnWriter(&warn), WithSyncEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 6)
	vals := make([]uint64, 6)
	for k := range keys {
		keys[k], vals[k] = uint64(k), uint64(k)
	}
	before := ffs.Ops()
	d.PutBatch(keys, vals)
	if got := ffs.Ops() - before; got != 4 {
		t.Fatalf("op delta = %d, want 4 (1 open + 2 writes + 1 fsync)", got)
	}
	// An all-resident batch touches the index only: zero filesystem ops.
	before = ffs.Ops()
	d.PutBatch(keys, vals)
	if got := ffs.Ops() - before; got != 0 {
		t.Fatalf("resident re-batch cost %d filesystem ops, want 0", got)
	}
	d.Close()
}

// TestPutBatchDedups: resident keys — from earlier Puts or duplicated
// inside the batch itself — are dropped exactly like Put drops them.
func TestPutBatchDedups(t *testing.T) {
	dir := t.TempDir()
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	d.Put(7, 42)
	d.PutBatch([]uint64{7, 8, 9, 9}, []uint64{42, 43, 44, 44})
	if st := d.Stats(); st.Appended != 3 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 appended entries", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openTest(t, dir, &warn)
	defer d2.Close()
	if st := d2.Stats(); st.Loaded != 3 {
		t.Fatalf("reopen loaded %d, want 3", st.Loaded)
	}
	for k := uint64(7); k <= 9; k++ {
		if v, ok := d2.Get(k); !ok || v != k+35 {
			t.Fatalf("Get(%d) = %d, %t", k, v, ok)
		}
	}
}

// TestPutBatchEmptyAndMismatched: an empty batch is a no-op that creates no
// segment, and mismatched key/value lengths panic loudly.
func TestPutBatchEmptyAndMismatched(t *testing.T) {
	dir := t.TempDir()
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	defer d.Close()
	d.PutBatch(nil, nil)
	if st := d.Stats(); st.DiskBytes != 0 || st.Appended != 0 {
		t.Fatalf("empty batch touched the disk: %+v", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched PutBatch lengths did not panic")
		}
	}()
	d.PutBatch([]uint64{1}, nil)
}

// BenchmarkStoreAppendBatch is the group-commit throughput figure: one
// 64-record PutBatch per iteration — one lock, one buffer, one write
// syscall — against a disk-backed store: the per-record cost of the
// batched path, which the benchmark's sweep-cold workload pays per pass.
func BenchmarkStoreAppendBatch(b *testing.B) {
	var warn bytes.Buffer
	d, err := Open[uint64](b.TempDir(), u64Codec{}, WithWarnWriter(&warn))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	const batchN = 64
	keys := make([]uint64, batchN)
	vals := make([]uint64, batchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * batchN
		for j := range keys {
			keys[j], vals[j] = base+uint64(j), base
		}
		d.PutBatch(keys, vals)
	}
	b.StopTimer()
	if st := d.Stats(); st.Degraded || warn.Len() > 0 {
		b.Fatalf("benchmark store degraded: %+v\n%s", st, warn.String())
	}
}

// segPath returns the store's single segment file.
func segPath(t *testing.T, dir string) string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "seg-*.psr"))
	if err != nil || len(m) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", m, err)
	}
	return m[0]
}

// writeStore persists keys 0..n-1 (value key+1000) and returns the segment
// path.
func writeStore(t *testing.T, dir string, n int) string {
	t.Helper()
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	for k := 0; k < n; k++ {
		d.Put(uint64(k), uint64(k)+1000)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return segPath(t, dir)
}

// TestDiskTruncatedSegmentDropsTail: a torn final write (crash) loses only
// the torn record; everything before it still loads, and the scan warns.
func TestDiskTruncatedSegmentDropsTail(t *testing.T) {
	dir := t.TempDir()
	seg := writeStore(t, dir, 10)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	defer d.Close()
	st := d.Stats()
	if st.Loaded != 9 || st.Corrupt == 0 {
		t.Fatalf("stats after truncation = %+v, want 9 loaded and corruption counted", st)
	}
	if !strings.Contains(warn.String(), "torn") {
		t.Fatalf("expected a torn-record warning, got %q", warn.String())
	}
	if _, ok := d.Get(9); ok {
		t.Fatal("the torn record must not load")
	}
	if v, ok := d.Get(8); !ok || v != 1008 {
		t.Fatal("records before the tear must load")
	}
}

// TestDiskFlippedByteSkipsRecord: a checksum failure skips exactly that
// record and keeps scanning the rest of the segment.
func TestDiskFlippedByteSkipsRecord(t *testing.T) {
	dir := t.TempDir()
	seg := writeStore(t, dir, 10)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the first record: offset = 8 (magic) + 12
	// (header) + 4 (inside the payload).
	data[8+12+4] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	defer d.Close()
	st := d.Stats()
	if st.Loaded != 9 || st.Corrupt != 1 {
		t.Fatalf("stats after flip = %+v, want 9 loaded / 1 corrupt", st)
	}
	if !strings.Contains(warn.String(), "checksum") {
		t.Fatalf("expected a checksum warning, got %q", warn.String())
	}
	if _, ok := d.Get(0); ok {
		t.Fatal("the corrupted record must not load")
	}
	if v, ok := d.Get(9); !ok || v != 1009 {
		t.Fatal("records after the corruption must still load")
	}
}

// TestDiskWrongSchemaVersionSkipsRecord: records from a future or past
// schema decode-fail, warn, and are recomputed — never misread.
func TestDiskWrongSchemaVersionSkipsRecord(t *testing.T) {
	dir := t.TempDir()
	// Write with a codec whose schema byte differs.
	d, err := Open[uint64](dir, altCodec{}, WithWarnWriter(os.Stderr))
	if err != nil {
		t.Fatal(err)
	}
	d.Put(1, 11)
	d.Put(2, 22)
	d.Close()

	var warn bytes.Buffer
	d2 := openTest(t, dir, &warn)
	defer d2.Close()
	st := d2.Stats()
	if st.Loaded != 0 || st.Corrupt != 2 {
		t.Fatalf("stats = %+v, want 0 loaded / 2 corrupt (wrong schema)", st)
	}
	if !strings.Contains(warn.String(), "schema") {
		t.Fatalf("expected a schema warning, got %q", warn.String())
	}
	if _, ok := d2.Get(1); ok {
		t.Fatal("wrong-schema records must not load")
	}
}

// altCodec writes valid records under a different schema byte.
type altCodec struct{}

func (altCodec) Append(dst []byte, v uint64) []byte {
	dst = append(dst, u64Schema+1)
	return binary.LittleEndian.AppendUint64(dst, v)
}

func (altCodec) Decode(p []byte) (uint64, error) {
	if len(p) != 9 || p[0] != u64Schema+1 {
		return 0, fmt.Errorf("schema mismatch")
	}
	return binary.LittleEndian.Uint64(p[1:]), nil
}

// TestDiskBadHeaderSkipsSegment: a file that is not a segment is skipped
// whole, without aborting the open.
func TestDiskBadHeaderSkipsSegment(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 3)
	if err := os.WriteFile(filepath.Join(dir, "seg-000099.psr"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	defer d.Close()
	if st := d.Stats(); st.Loaded != 3 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 3 loaded / 1 corrupt segment", st)
	}
	if !strings.Contains(warn.String(), "header") {
		t.Fatalf("expected a header warning, got %q", warn.String())
	}
}

// TestDiskSecondWriterGetsOwnSegment: sequential processes append to fresh
// segments and the union loads.
func TestDiskSecondWriterGetsOwnSegment(t *testing.T) {
	dir := t.TempDir()
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	d.Put(1, 100)
	d.Close()
	d2 := openTest(t, dir, &warn)
	d2.Put(2, 200)
	d2.Close()

	m, _ := filepath.Glob(filepath.Join(dir, "seg-*.psr"))
	if len(m) != 2 {
		t.Fatalf("want 2 segments, got %v", m)
	}
	d3 := openTest(t, dir, &warn)
	defer d3.Close()
	if st := d3.Stats(); st.Loaded != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want both writers' records", st)
	}
}

// TestMergeUnionsStores: Merge assembles N shard stores into one
// destination; a typo'd directory fails loudly.
func TestMergeUnionsStores(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	var warn bytes.Buffer
	for si, dir := range dirs {
		d := openTest(t, dir, &warn)
		for k := si; k < 10; k += 2 {
			d.Put(uint64(k), uint64(k)*7)
		}
		d.Close()
	}
	dst := NewMem[uint64]()
	if err := Merge[uint64](dst, u64Codec{}, dirs, WithWarnWriter(&warn)); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 10 {
		t.Fatalf("merged %d entries, want 10", dst.Len())
	}
	for k := uint64(0); k < 10; k++ {
		if v, ok := dst.Get(k); !ok || v != k*7 {
			t.Fatalf("merged Get(%d) = %d, %t", k, v, ok)
		}
	}
	if err := Merge[uint64](dst, u64Codec{}, []string{filepath.Join(dirs[0], "no-such-shard")}); err == nil {
		t.Fatal("merging a missing directory must fail loudly")
	}
}

// TestSegmentNameMatchIsAnchored: only exact seg-NNNNNN.psr names are
// segments — backup copies and temp files must neither double-load records
// nor inflate the corruption counters.
func TestSegmentNameMatchIsAnchored(t *testing.T) {
	dir := t.TempDir()
	seg := writeStore(t, dir, 3)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{"seg-000001.psr.bak", "seg-000001.psr.tmp", "seg-.psr", "seg-1x.psr", "xseg-000002.psr"} {
		if err := os.WriteFile(filepath.Join(dir, stray), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	defer d.Close()
	if st := d.Stats(); st.Loaded != 3 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want only the real segment's 3 records", st)
	}
	if warn.Len() != 0 {
		t.Fatalf("stray files caused warnings: %s", warn.String())
	}
}

// TestNilMemIsAlwaysMissStore: a typed-nil *Mem behind the Store interface
// behaves like the pointer-typed memo era — no caching, no panic.
func TestNilMemIsAlwaysMissStore(t *testing.T) {
	var m *Mem[uint64]
	var st Store[uint64] = m
	st.Put(1, 10)
	if _, ok := st.Get(1); ok {
		t.Fatal("nil store returned a value")
	}
	if st.Len() != 0 || st.Hits() != 0 || st.Misses() != 0 {
		t.Fatal("nil store reports non-zero counters")
	}
	if (st.Stats() != Stats{}) {
		t.Fatal("nil store reports non-zero stats")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSurfacesCorruption: corruption met while merging lands in the
// destination's audit counters for both destination kinds — the -v stats
// line must not report a clean merge over a damaged shard store.
func TestMergeSurfacesCorruption(t *testing.T) {
	src := t.TempDir()
	seg := writeStore(t, src, 4)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[8+12+2] ^= 0x40 // flip a byte in the first record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	mem := NewMem[uint64]()
	if err := Merge[uint64](mem, u64Codec{}, []string{src}, WithWarnWriter(&warn)); err != nil {
		t.Fatal(err)
	}
	if st := mem.Stats(); st.Loaded != 3 || st.Corrupt != 1 {
		t.Fatalf("mem merge stats = %+v, want 3 loaded / 1 corrupt", st)
	}

	disk := openTest(t, t.TempDir(), &warn)
	defer disk.Close()
	if err := Merge[uint64](disk, u64Codec{}, []string{src}, WithWarnWriter(&warn)); err != nil {
		t.Fatal(err)
	}
	if st := disk.Stats(); st.Loaded != 3 || st.Corrupt != 1 {
		t.Fatalf("disk merge stats = %+v, want 3 loaded / 1 corrupt", st)
	}
}

// TestMergeIntoDiskPersistsUnion: merging into a disk-backed destination
// also persists the union, so the merged store is itself warm.
func TestMergeIntoDiskPersistsUnion(t *testing.T) {
	src, dstDir := t.TempDir(), t.TempDir()
	var warn bytes.Buffer
	d := openTest(t, src, &warn)
	d.Put(5, 55)
	d.Close()

	dst := openTest(t, dstDir, &warn)
	if err := Merge[uint64](dst, u64Codec{}, []string{src}, WithWarnWriter(&warn)); err != nil {
		t.Fatal(err)
	}
	dst.Close()

	re := openTest(t, dstDir, &warn)
	defer re.Close()
	if v, ok := re.Get(5); !ok || v != 55 {
		t.Fatal("merged record did not persist in the destination store")
	}
}

// TestMemGetOrCompute pins the single-entry-point contract runTrial and
// the serving daemon rely on: a warm key is one counted hit with compute
// never called; a cold key computes once and persists; a compute error is
// returned without storing anything; and a typed-nil *Mem computes without
// retaining — identical to its drop-writes Put.
func TestMemGetOrCompute(t *testing.T) {
	m := NewMem[uint64]()
	calls := 0
	v, err := m.GetOrCompute(1, func() (uint64, error) { calls++; return 10, nil })
	if err != nil || v != 10 || calls != 1 {
		t.Fatalf("cold: v=%d err=%v calls=%d", v, err, calls)
	}
	v, err = m.GetOrCompute(1, func() (uint64, error) { calls++; return 0, nil })
	if err != nil || v != 10 || calls != 1 {
		t.Fatalf("warm: v=%d err=%v calls=%d (compute ran on a warm key)", v, err, calls)
	}
	if m.Hits() != 1 || m.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", m.Hits(), m.Misses())
	}

	sentinel := fmt.Errorf("compute failed")
	if _, err := m.GetOrCompute(2, func() (uint64, error) { return 99, sentinel }); err != sentinel {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, ok := m.Get(2); ok {
		t.Fatal("failed computation was stored")
	}

	var nilMem *Mem[uint64]
	nilCalls := 0
	for i := 0; i < 2; i++ {
		if v, err := nilMem.GetOrCompute(3, func() (uint64, error) { nilCalls++; return 7, nil }); err != nil || v != 7 {
			t.Fatalf("nil mem: v=%d err=%v", v, err)
		}
	}
	if nilCalls != 2 {
		t.Fatalf("nil mem memoized: %d calls, want 2", nilCalls)
	}
}

// TestDiskGetOrCompute: the disk tier's single entry point persists cold
// results (a re-open sees them) and replays warm ones without recompute.
func TestDiskGetOrCompute(t *testing.T) {
	dir := t.TempDir()
	var warn bytes.Buffer
	d := openTest(t, dir, &warn)
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := d.GetOrCompute(4, func() (uint64, error) { calls++; return 44, nil })
		if err != nil || v != 44 {
			t.Fatalf("v=%d err=%v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	sentinel := fmt.Errorf("sim failed")
	if _, err := d.GetOrCompute(5, func() (uint64, error) { return 0, sentinel }); err != sentinel {
		t.Fatalf("error not propagated: %v", err)
	}
	if st := d.Stats(); st.Appended != 1 {
		t.Fatalf("appended = %d, want 1 (failed compute must not persist)", st.Appended)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir, &warn)
	defer re.Close()
	if v, err := re.GetOrCompute(4, func() (uint64, error) { t.Error("recompute after re-open"); return 0, nil }); err != nil || v != 44 {
		t.Fatalf("warm re-open: v=%d err=%v", v, err)
	}
}
