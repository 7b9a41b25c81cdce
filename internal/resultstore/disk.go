package resultstore

// The on-disk tier. A store directory holds append-only segment files
// (seg-NNNNNN.psr); each writer — processes, or multiple stores opened on
// one directory inside one process — opens its own fresh segment with
// O_EXCL, so concurrent writers never interleave bytes. The index is
// rebuilt at open by scanning every segment; there is no separate index
// file to go stale or corrupt. It has two tiers: the loaded tier, a plain
// map the open scan fills once and nothing writes afterwards, so warm hits
// read it without a lock; and this process's own writes, in a sharded
// cache.Memo. A key lives in at most one of them.
//
// Segment layout:
//
//	[8B magic "PSRSEG1\n"]
//	record*: [8B key][4B payload len][payload][8B FNV-1a of key+len+payload]
//
// all little-endian. The scan trusts nothing it cannot prove: a segment
// without the magic is skipped whole; a record whose length field is
// implausible or runs past EOF ends the segment (a torn final write, the
// crash case); a record whose checksum fails is skipped individually when
// the corruption is in the payload (the length field still frames the next
// record, so the scan resyncs there); a payload the Codec rejects (wrong
// schema version) is skipped with a warning. A flip inside the length
// field itself cannot be told apart from a valid frame until the checksum
// fails, so it may desync the scan and cost the rest of that segment —
// the deliberate trade for a 20-byte record overhead: every failure mode
// degrades to recomputation (bounded by one segment), never to bad data.
//
// Framing a record reads only its length field, so the scan frames up to
// four records ahead and checksums them in one pass of the four-lane
// FNV-1a kernel (cache.HashBytesFrom4) before handling them in file order;
// what it loads, counts and warns is exactly what a one-record-at-a-time
// walk would (scan_test.go holds it to one).
//
// Fault model (PR 8): every filesystem touch goes through an injectable FS
// (fs.go). Transient errors and O_EXCL collisions are retried under a
// bounded, jittered backoff; a write failure rotates to a fresh segment so
// a torn tail can never desync later appends; and when retries exhaust the
// store demotes itself to its in-memory tier with one warning — the run
// completes with identical output, it just stops being incremental. The
// durability boundary is explicit: a record is crash-durable only after a
// successful Sync (or Close, or the WithSyncEvery cadence); the
// crash-consistency harness (crash_test.go) proves that every record whose
// bytes landed before a cut survives re-open and nothing corrupt loads.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

const (
	segMagic = "PSRSEG1\n"
	// segPrefix/segSuffix frame segment file names: seg-000001.psr.
	segPrefix = "seg-"
	segSuffix = ".psr"
	// probeName is the throwaway file Open creates to prove the directory
	// is writable before the run invests in simulation.
	probeName = ".psr-probe"
	// recHeaderLen is key (8) + payload length (4).
	recHeaderLen = 12
	// recSumLen is the trailing checksum.
	recSumLen = 8
	// MaxPayload bounds one record's payload; anything larger in a length
	// field is treated as corruption, which also stops a desynced scan
	// from allocating garbage.
	MaxPayload = 1 << 20
	// maxSegCollisions bounds the O_EXCL name search: a creation loop that
	// loses this many races in a row is not racing, it is broken.
	maxSegCollisions = 1024
)

// Codec converts values to and from their durable byte form. Encodings
// must be canonical and versioned (see Enc): Append writes the schema
// version first, Decode rejects payloads it does not understand — the
// rejection is what turns schema evolution into recomputation instead of
// misreading.
type Codec[V any] interface {
	// Append serializes v onto dst and returns the extended slice.
	Append(dst []byte, v V) []byte
	// Decode parses one durable payload.
	Decode(payload []byte) (V, error)
}

// Option configures Open and Merge.
type Option func(*options)

type options struct {
	warn       io.Writer
	warner     *Warner
	fs         FS
	syncEvery  int
	sleep      func(time.Duration)
	degradedOK bool
}

// The transient-error retry policy: up to maxRetries re-attempts per
// operation, sleeping retryBackoff<<attempt plus deterministic jitter
// between them.
const (
	maxRetries   = 4
	retryBackoff = time.Millisecond
)

func defaultOptions() options {
	return options{
		warn:  os.Stderr,
		fs:    OS(),
		sleep: time.Sleep,
	}
}

// warnerOrDefault resolves the configured warner (an explicit shared one
// wins over a writer-wrapping default).
func (o *options) warnerOrDefault() *Warner {
	if o.warner != nil {
		return o.warner
	}
	return NewWarner(o.warn, DefaultWarnLimit)
}

// WithWarnWriter routes warnings (default os.Stderr) through a fresh
// rate-limited Warner over w.
func WithWarnWriter(w io.Writer) Option {
	return func(o *options) { o.warn = w }
}

// WithWarner shares an existing rate-limited Warner (e.g. one warner across
// a store and the merges feeding it). Overrides WithWarnWriter.
func WithWarner(w *Warner) Option {
	return func(o *options) { o.warner = w }
}

// WithFS substitutes the filesystem — the fault-injection seam (FaultFS).
func WithFS(fsys FS) Option {
	return func(o *options) { o.fs = fsys }
}

// WithSyncEvery fsyncs the active segment after every n successful appends,
// tightening the durability boundary from "at Sync/Close" to "within n
// records" at the cost of an fsync per n records (0 = sync only at
// Sync/Close, the default).
func WithSyncEvery(n int) Option {
	return func(o *options) { o.syncEvery = n }
}

// WithSleep substitutes the backoff sleeper (test seam: chaos tests retry
// thousands of times and must not wait real milliseconds).
func WithSleep(sleep func(time.Duration)) Option {
	return func(o *options) { o.sleep = sleep }
}

// WithDegradedFallback(true) turns open-time unusability — a directory
// that cannot be created, read or written — into a degraded in-memory
// store with one warning instead of an error: the run completes with
// identical output, it just is not incremental. The default (false) fails
// fast at Open with a clear message, before any simulation time is spent.
func WithDegradedFallback(allow bool) Option {
	return func(o *options) { o.degradedOK = allow }
}

// Disk is the durable Store tier: an in-memory index over append-only
// segment files. Get is a pure memory lookup: first in the loaded tier,
// every intact record the open scan found, read without a lock; then in
// the memo of records this process put. Put appends one record to this
// process's segment and indexes it in the memo.
type Disk[V any] struct {
	dir   string
	codec Codec[V]
	// base is the loaded tier. Open writes it and nothing writes it after
	// Open returns, so any number of goroutines read it without a lock;
	// baseHits counts its hits, striped by key over padded cache lines so
	// that concurrent readers rarely write the same line.
	base     map[uint64]V
	baseHits [hitStripes]hitStripe
	memo     *cache.Memo[V]
	warner   *Warner
	fs       FS

	syncEvery int
	sleep     func(time.Duration)

	mu        sync.Mutex
	seg       File // this process's segment; created lazily on first Put
	nextSeg   int  // next segment number to try for O_EXCL creation
	sinceSync int  // appends since the last fsync
	rng       uint64
	// recBuf is the framed-records scratch of Put and PutBatch, reused
	// across commits.
	recBuf      []byte
	loaded      uint64
	appended    uint64
	corrupt     uint64
	retries     uint64
	recovered   uint64
	unpersisted uint64
	degraded    bool
	diskBytes   int64
}

// hitStripes is how many counters the loaded tier's hits are spread over.
const hitStripes = 64

// hitStripe is one hit counter with a cache line of padding on either
// side, so it shares a line with no other counter and with none of the
// Disk fields around the stripes (the loaded tier's map is one of them).
type hitStripe struct {
	_ [64]byte
	n atomic.Uint64
	_ [56]byte
}

// Open opens (creating if needed) the store directory at dir, proves it is
// writable, scans every segment into the loaded tier, and returns the
// store. The segments are read first, so the loaded tier is sized once
// from their framed record count. Corrupt or undecodable records are
// skipped with a warning and will simply be recomputed and re-appended by
// the run. An unusable directory fails fast with a clear error — or, with
// WithDegradedFallback(true), yields a degraded in-memory store instead.
func Open[V any](dir string, codec Codec[V], opts ...Option) (*Disk[V], error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	d := &Disk[V]{
		dir: dir, codec: codec, memo: cache.NewMemo[V](),
		warner: o.warnerOrDefault(), fs: o.fs,
		syncEvery: o.syncEvery, sleep: o.sleep,
		nextSeg: 1,
		// Deterministic jitter: the stream is a pure function of the
		// directory name, so fault schedules replay exactly.
		rng: cache.HashBytes([]byte(dir)) | 1,
	}
	if err := d.retryDo(func() error { return d.fs.MkdirAll(dir, 0o755) }); err != nil {
		err = fmt.Errorf("resultstore: %s: cannot create store directory: %w", dir, err)
		if !o.degradedOK {
			return nil, err
		}
		d.degradeLocked(err)
		return d, nil
	}
	if err := d.probeWritable(); err != nil {
		err = fmt.Errorf("resultstore: %s: store directory is not writable: %w", dir, err)
		if !o.degradedOK {
			return nil, err
		}
		// Keep scanning: a read-only store still replays warm results.
		d.degradeLocked(err)
	}
	var segs []segment
	err := d.retryDo(func() error {
		var lerr error
		segs, lerr = listSegments(d.fs, dir)
		return lerr
	})
	if err != nil {
		if !o.degradedOK {
			return nil, err
		}
		if !d.degraded {
			d.degradeLocked(err)
		}
		return d, nil
	}
	type read struct {
		data []byte
		err  error
	}
	reads := make([]read, len(segs))
	records := 0
	for i, s := range segs {
		if s.n >= d.nextSeg {
			d.nextSeg = s.n + 1
		}
		reads[i].data, reads[i].err = d.retryReadFile(s.path)
		records += framedRecords(reads[i].data)
	}
	d.base = make(map[uint64]V, records)
	put := func(key uint64, v V) { d.base[key] = v }
	for i, s := range segs {
		r := reads[i]
		loaded, corrupt, bytes := scanSegmentFile(func(string) ([]byte, error) { return r.data, r.err }, s.path, d.codec, d.warner, put)
		d.loaded += loaded
		d.corrupt += corrupt
		d.diskBytes += bytes
	}
	return d, nil
}

// probeWritable proves the directory accepts new files before the run
// invests simulation time in results it could not persist.
func (d *Disk[V]) probeWritable() error {
	path := filepath.Join(d.dir, probeName)
	return d.retryDo(func() error {
		f, err := d.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		err = f.Close()
		// Best-effort: a probe another concurrent Open already removed (or a
		// filesystem that refuses the delete) costs one stray dotfile, which
		// the segment-name anchor keeps out of every scan.
		d.fs.Remove(path)
		return err
	})
}

// retryDo runs op, retrying transient failures up to maxRetries times with
// jittered exponential backoff. Callers must hold d.mu when the store is
// shared (retry counters and the jitter stream are d-state).
func (d *Disk[V]) retryDo(op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			if attempt > 0 {
				d.recovered++
			}
			return nil
		}
		if attempt >= maxRetries || !transientErr(err) {
			return err
		}
		d.retries++
		d.sleep(d.backoffFor(attempt))
	}
}

// backoffFor returns retryBackoff<<attempt plus up to 50% deterministic
// jitter.
func (d *Disk[V]) backoffFor(attempt int) time.Duration {
	if attempt > 10 {
		attempt = 10
	}
	step := retryBackoff << uint(attempt)
	// xorshift64: cheap, seeded from the directory name at Open.
	d.rng ^= d.rng << 13
	d.rng ^= d.rng >> 7
	d.rng ^= d.rng << 17
	return step + time.Duration(d.rng%uint64(step/2+1))
}

// retryReadFile is fs.ReadFile under the transient-retry policy.
func (d *Disk[V]) retryReadFile(path string) ([]byte, error) {
	var data []byte
	err := d.retryDo(func() error {
		var err error
		data, err = d.fs.ReadFile(path)
		return err
	})
	return data, err
}

// Dir returns the store's directory.
func (d *Disk[V]) Dir() string { return d.dir }

// Get implements Store: a memory lookup (every intact durable record was
// loaded at open). A loaded record is one lock-free map read and one
// striped hit count; any other key goes to the memo of this process's
// writes, which counts the hit or the miss.
func (d *Disk[V]) Get(key uint64) (V, bool) {
	if v, ok := d.base[key]; ok {
		d.baseHits[key%hitStripes].n.Add(1)
		return v, true
	}
	return d.memo.Get(key)
}

// has reports whether either tier holds key, counting nothing — the
// append dedup of Put and PutBatch.
func (d *Disk[V]) has(key uint64) bool {
	_, ok := d.base[key]
	return ok || d.memo.Contains(key)
}

// Put implements Store: index the value and append one durable record —
// PutBatch with a single record. Re-puts of a key in either tier are dropped
// (values are deterministic, so the record on disk is already correct) —
// merges and racing workers cannot bloat the store. An append that fails
// after exhausting retries demotes the store to its in-memory tier: the
// run continues correct, with one warning, and every later Put is counted
// as unpersisted.
func (d *Disk[V]) Put(key uint64, v V) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.has(key) {
		return
	}
	d.memo.Put(key, v)
	buf, err := d.frameRecord(d.recBuf[:0], key, v)
	d.commitLocked(buf, 1, err)
}

// PutBatch is the group-commit form of Put: it indexes and persists
// len(keys) records through one lock acquisition, one encoded buffer, one
// write syscall and one retry/rotation/sync-cadence decision — where N
// single Puts would pay each of those N times. Semantics match N Puts
// exactly otherwise: resident keys are dropped (their records are already
// durable and correct), a degraded store only indexes, and an append that
// exhausts retries demotes the store to memory-only with the whole batch
// counted unpersisted. Durability is also batch-grained: none of the batch
// is crash-durable before the next successful fsync, and a crash mid-write
// tears only the batch's tail — records whose bytes landed intact still
// replay (the crash harness proves both properties byte by byte).
func (d *Disk[V]) PutBatch(keys []uint64, vals []V) {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("resultstore: PutBatch with %d keys and %d values", len(keys), len(vals)))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	buf, n := d.recBuf[:0], 0
	var err error
	for i, key := range keys {
		if d.has(key) {
			continue
		}
		d.memo.Put(key, vals[i])
		n++
		if err == nil {
			buf, err = d.frameRecord(buf, key, vals[i])
		}
	}
	d.commitLocked(buf, n, err)
}

// GetOrCompute implements Store: a warm hit is one Get, with no disk I/O
// and no store lock; a miss runs compute outside d.mu (an append must
// never stall behind a simulation) and persists the value via Put, whose
// dedup keeps racing cold computations of one key from writing duplicate
// records.
func (d *Disk[V]) GetOrCompute(key uint64, compute func() (V, error)) (V, error) {
	if v, ok := d.Get(key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	d.Put(key, v)
	return v, nil
}

// degradeLocked demotes the store to memory-only with one warning line.
// Callers hold d.mu (or own the store exclusively, as Open does).
func (d *Disk[V]) degradeLocked(cause error) {
	d.degraded = true
	if d.seg != nil {
		d.seg.Close()
		d.seg = nil
	}
	// Every degrade cause below is already "resultstore: ..."-prefixed.
	d.warner.Warnf("degraded", "%v — store degraded to memory-only (run continues, results will not persist)", cause)
}

// createSegment claims a fresh O_EXCL segment for this writer, retrying
// transient errors with backoff and racing past name collisions (another
// writer claiming the same number first) by advancing to the next number.
// Callers hold d.mu.
func (d *Disk[V]) createSegment() error {
	collisions, attempt := 0, 0
	for {
		path := filepath.Join(d.dir, fmt.Sprintf("%s%06d%s", segPrefix, d.nextSeg, segSuffix))
		f, err := d.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		d.nextSeg++
		if err == nil {
			n, werr := f.Write([]byte(segMagic))
			d.diskBytes += int64(n)
			if werr == nil && n < len(segMagic) {
				werr = io.ErrShortWrite
			}
			if werr != nil {
				// The claimed file now has a torn header; drop it (the scan
				// would skip it anyway) and treat the failure like any other
				// transient write: a fresh number on the next attempt.
				f.Close()
				d.fs.Remove(path)
				if !transientErr(werr) || attempt >= maxRetries {
					return werr
				}
				attempt++
				d.retries++
				d.sleep(d.backoffFor(attempt))
				continue
			}
			d.seg = f
			if attempt > 0 || collisions > 0 {
				d.recovered++
			}
			return nil
		}
		if os.IsExist(err) {
			// Another writer claimed this number between our open-scan and
			// now; move on. True multi-writer herds back off briefly every
			// few losses so they fan out over the name space instead of
			// lock-stepping through it.
			collisions++
			d.retries++
			if collisions > maxSegCollisions {
				return fmt.Errorf("no free segment name after %d collisions: %w", collisions, err)
			}
			if collisions%8 == 0 {
				d.sleep(d.backoffFor(attempt))
			}
			continue
		}
		if !transientErr(err) || attempt >= maxRetries {
			return err
		}
		attempt++
		d.retries++
		d.sleep(d.backoffFor(attempt))
	}
}

// frameRecord frames one record onto buf: key, payload length, the
// codec's payload and the checksum. Callers hold d.mu.
func (d *Disk[V]) frameRecord(buf []byte, key uint64, v V) ([]byte, error) {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, key)
	buf = append(buf, 0, 0, 0, 0) // payload length, patched below
	buf = d.codec.Append(buf, v)
	payloadLen := len(buf) - start - recHeaderLen
	if payloadLen > MaxPayload {
		return buf[:start], fmt.Errorf("record payload %d bytes exceeds MaxPayload", payloadLen)
	}
	binary.LittleEndian.PutUint32(buf[start+8:], uint32(payloadLen))
	return binary.LittleEndian.AppendUint64(buf, sumRecord(buf[start:start+recHeaderLen+payloadLen])), nil
}

// commitLocked persists the n records just indexed by Put or PutBatch,
// framed back to back in buf (err is the first framing failure, if any).
// A degraded store, or a commit whose framing or write fails, counts all
// n as unpersisted; a failure degrades the store. Callers hold d.mu.
func (d *Disk[V]) commitLocked(buf []byte, n int, err error) {
	d.recBuf = buf[:0] // keep the grown capacity for the next commit
	if n == 0 {
		return
	}
	if d.degraded {
		d.unpersisted += uint64(n)
		return
	}
	if err == nil {
		err = d.writeLocked(buf, n)
	}
	if err != nil {
		d.unpersisted += uint64(n)
		d.degradeLocked(fmt.Errorf("resultstore: %s: append failed: %w", d.dir, err))
	}
}

// writeLocked lands n framed records with a single Write call to this
// process's segment, creating the segment on first use: either every
// record lands or the tail is torn, and the open scan discards torn tails.
// A failed or short write rotates to a fresh segment and retries the whole
// buffer there — the torn tail left behind holds only whole-record
// prefixes plus at most one torn record, which the open scan already
// absorbs, so a retry can never desync a segment that a crash would later
// replay. The sync cadence is checked once per write. Callers hold d.mu.
func (d *Disk[V]) writeLocked(buf []byte, n int) error {
	for attempt := 0; ; attempt++ {
		if d.seg == nil {
			if err := d.createSegment(); err != nil {
				return err
			}
		}
		w, err := d.seg.Write(buf)
		d.diskBytes += int64(w)
		if err == nil && w < len(buf) {
			err = io.ErrShortWrite
		}
		if err == nil {
			if attempt > 0 {
				d.recovered++
			}
			d.appended += uint64(n)
			d.sinceSync += n
			if d.syncEvery > 0 && d.sinceSync >= d.syncEvery {
				if serr := d.syncLocked(); serr != nil {
					return serr
				}
			}
			return nil
		}
		// This segment may now carry a torn tail; rotate before any retry.
		d.seg.Close()
		d.seg = nil
		if !transientErr(err) || attempt >= maxRetries {
			return err
		}
		d.retries++
		d.sleep(d.backoffFor(attempt))
	}
}

// syncLocked fsyncs the active segment under the retry policy. Callers
// hold d.mu.
func (d *Disk[V]) syncLocked() error {
	if d.seg == nil {
		return nil
	}
	if err := d.retryDo(d.seg.Sync); err != nil {
		return fmt.Errorf("fsync failed: %w", err)
	}
	d.sinceSync = 0
	return nil
}

// Sync is the explicit durability boundary: records appended before a
// successful Sync survive a crash (the open scan proves each one by
// checksum); records after it are guaranteed only by the next Sync, Close
// or WithSyncEvery cadence. A Sync that fails after retries degrades the
// store — fsync errors are not retryable promises on real kernels.
func (d *Disk[V]) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.degraded || d.seg == nil {
		return nil
	}
	err := d.syncLocked()
	if err != nil {
		d.degradeLocked(fmt.Errorf("resultstore: %s: %w", d.dir, err))
	}
	return err
}

// Stats implements Store. Hits and Entries sum both tiers.
func (d *Disk[V]) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Stats{Hits: d.memo.Hits(), Misses: d.memo.Misses(), Entries: len(d.base) + d.memo.Len()}
	for i := range d.baseHits {
		s.Hits += d.baseHits[i].n.Load()
	}
	s.Loaded = d.loaded
	s.Appended = d.appended
	s.Corrupt = d.corrupt
	s.DiskBytes = d.diskBytes
	s.Retries = d.retries
	s.Recovered = d.recovered
	s.Unpersisted = d.unpersisted
	s.Degraded = d.degraded
	s.Warnings = d.warner.Total()
	return s
}

// Close implements Store: syncs and closes this process's segment and
// flushes the warner's suppression summary. The store directory itself is
// a cache — deleting it at any time is safe and only costs recomputation.
func (d *Disk[V]) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.warner.Flush()
	if d.seg == nil {
		return nil
	}
	f := d.seg
	d.seg = nil
	if err := d.retryDo(f.Sync); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Merge loads every intact record of the stores at dirs into dst — the
// shard-assembly path: N shard runs each persist their partition, and one
// merge run unions the stores into a single warm index (persisting the
// union too, when dst is itself disk-backed). A missing directory is an
// error: a typo'd shard path must not silently assemble a partial figure.
func Merge[V any](dst Store[V], codec Codec[V], dirs []string, opts ...Option) error {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	warner := o.warnerOrDefault()
	// A group-committing destination takes each scanned segment as one
	// batch: one lock acquisition, one append buffer and one write syscall
	// per segment, instead of one of each per record.
	batcher, _ := dst.(interface{ PutBatch(keys []uint64, vals []V) })
	var batchKeys []uint64
	var batchVals []V
	for _, dir := range dirs {
		segs, err := listSegments(o.fs, dir)
		if err != nil {
			return fmt.Errorf("resultstore: merge: %q is not a readable store directory: %w", dir, err)
		}
		var merged, corrupt uint64
		for _, s := range segs {
			put := dst.Put
			if batcher != nil {
				batchKeys, batchVals = batchKeys[:0], batchVals[:0]
				put = func(key uint64, v V) {
					batchKeys = append(batchKeys, key)
					batchVals = append(batchVals, v)
				}
			}
			loaded, bad, _ := scanSegmentFile(o.fs.ReadFile, s.path, codec, warner, put)
			if batcher != nil {
				batcher.PutBatch(batchKeys, batchVals)
			}
			merged += loaded
			corrupt += bad
		}
		// Fold the merge into the destination's audit counters: a
		// disk-backed destination counts merged records as loaded (its Put
		// already persisted the new ones), an in-memory one tracks them on
		// its own merge counters — either way the -v stats line reports
		// corruption met along the way instead of dropping it.
		switch d := dst.(type) {
		case *Disk[V]:
			d.mu.Lock()
			d.loaded += merged
			d.corrupt += corrupt
			d.mu.Unlock()
		case *Mem[V]:
			d.merged.Add(merged)
			d.corrupt.Add(corrupt)
		}
	}
	warner.Flush()
	return nil
}

// segment is one discovered segment file.
type segment struct {
	path string
	n    int
}

// listSegments returns dir's segment files in creation order.
func listSegments(fsys FS, dir string) ([]segment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var out []segment
	for _, e := range entries {
		n, ok := segmentNumber(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		out = append(out, segment{path: filepath.Join(dir, e.Name()), n: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].n < out[j].n })
	return out, nil
}

// segmentNumber parses an exact segment file name — segPrefix, digits,
// segSuffix, nothing else — so backup copies (seg-000001.psr.bak) and
// editor/rsync temp files never scan (or double-load) as segments.
func segmentNumber(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	if mid == "" {
		return 0, false
	}
	n := 0
	for _, c := range []byte(mid) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// framedRecords counts the records of a segment's bytes the way the open
// scan frames them, stopping at a torn tail; a segment without the magic
// frames none. It reads only length fields, so it sizes the loaded tier
// without checksumming or decoding anything.
func framedRecords(data []byte) int {
	if !hasMagic(data) {
		return 0
	}
	n := 0
	for off := len(segMagic); off < len(data); n++ {
		end, torn := frameEnd(data, off)
		if torn != "" {
			break
		}
		off = end
	}
	return n
}

// hasMagic reports whether data starts with the segment magic.
func hasMagic(data []byte) bool {
	return len(data) >= len(segMagic) && string(data[:len(segMagic)]) == segMagic
}

// frameEnd frames the record at off from its length field alone: it
// returns the offset just past the record's checksum, or why the segment
// is torn at off.
func frameEnd(data []byte, off int) (end int, torn string) {
	if len(data)-off < recHeaderLen+recSumLen {
		return 0, "torn record"
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[off+8:]))
	end = off + recHeaderLen + payloadLen + recSumLen
	if payloadLen > MaxPayload || end > len(data) {
		return 0, "torn or corrupt record"
	}
	return end, ""
}

// sumRecord checksums a record's key+len+payload bytes.
func sumRecord(rec []byte) uint64 {
	return cache.HashBytes(rec)
}

// scanGroup is how many framed records the open scan checksums per call
// of the four-lane hash kernel.
const scanGroup = 4

// scanSegmentFile reads one segment through the given reader and walks it,
// calling put for every provably-intact, decodable record. It returns how
// many records were loaded, how many were skipped as corrupt, and the
// segment's byte size (counted whole — corrupt bytes still occupy disk).
//
// Framing a record needs only its length field, never its checksum, so the
// walk frames up to scanGroup records ahead, checksums them in one
// cache.HashBytesFrom4 call, and then handles them in file order, followed
// by the torn tail that stopped the framing, if any: the warnings, their
// order and the counts are those of a walk that checks one record at a
// time.
func scanSegmentFile[V any](read func(string) ([]byte, error), path string, codec Codec[V], warner *Warner, put func(key uint64, v V)) (loaded, corrupt uint64, size int64) {
	data, err := read(path)
	if err != nil {
		warner.Warnf("unreadable-segment", "resultstore: %s: unreadable segment: %v (its results will be recomputed)", path, err)
		return 0, 1, 0
	}
	size = int64(len(data))
	if !hasMagic(data) {
		warner.Warnf("bad-segment-header", "resultstore: %s: bad segment header — skipping segment (its results will be recomputed)", path)
		return 0, 1, size
	}
	basis := cache.HashBytes(nil) // sumRecord's starting state
	off := len(segMagic)
	for off < len(data) {
		// Frame up to scanGroup records: starts[k] is record k's offset
		// and bodies[k] its key+len+payload bytes.
		var starts [scanGroup]int
		var bodies [scanGroup][]byte
		n, torn := 0, ""
		for n < scanGroup && off < len(data) {
			var end int
			if end, torn = frameEnd(data, off); torn != "" {
				break
			}
			starts[n], bodies[n] = off, data[off:end-recSumLen]
			n++
			off = end
		}
		sums := cache.HashBytesFrom4([4]uint64{basis, basis, basis, basis}, bodies[0], bodies[1], bodies[2], bodies[3])
		for k, body := range bodies[:n] {
			if sums[k] != binary.LittleEndian.Uint64(data[starts[k]+len(body):]) {
				warner.Warnf("checksum-mismatch", "resultstore: %s: checksum mismatch at offset %d — skipping record (will be recomputed)", path, starts[k])
				corrupt++
				continue
			}
			v, err := codec.Decode(body[recHeaderLen:])
			if err != nil {
				warner.Warnf("undecodable-record", "resultstore: %s: undecodable record at offset %d: %v — skipping record (will be recomputed)", path, starts[k], err)
				corrupt++
				continue
			}
			put(binary.LittleEndian.Uint64(body), v)
			loaded++
		}
		if torn != "" {
			warner.Warnf("torn-record", "resultstore: %s: %s at offset %d — dropping tail (will be recomputed)", path, torn, off)
			corrupt++
			break
		}
	}
	return loaded, corrupt, size
}
