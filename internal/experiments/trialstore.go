package experiments

// The typed trial-result store layer. A TrialStore has two tiers: trial
// results, resultstore.Store instantiated for TrialResult with the
// versioned canonical record codec that makes them durable across
// processes, and sweep-cell bootstrap intervals (Cells), which let a warm
// sweep replay skip its cells' resampling. NewTrialMemo keeps the
// historical in-memory behavior (and name); OpenTrialStore adds the
// disk-backed tiers, and MergeTrialStores assembles shard runs.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"repro/internal/resultstore"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TrialStore is the pluggable trial-result store behind Config.Memo: the
// in-memory memo, or a durable disk-backed store whose results survive the
// process and can be merged across shard runs. Its own methods are the
// trial tier, and Stats counts trial records only.
type TrialStore interface {
	resultstore.Store[TrialResult]
	// Cells is the tier of sweep-cell bootstrap intervals, keyed by
	// everything an interval is a pure function of (cellKey). A warm sweep
	// reads each cell's interval here instead of redrawing it.
	Cells() resultstore.Store[stats.Interval]
}

// TrialMemo is the in-memory TrialStore — the historical per-process
// memoization table, plus a cells tier of the same kind. Share one across
// repeated or overlapping runs via Config.Memo to skip already-simulated
// cells; it is safe for concurrent use by parallel workers. A nil
// *TrialMemo behaves like a nil *resultstore.Mem in both tiers: it
// computes everything and keeps nothing.
type TrialMemo struct {
	trials *resultstore.Mem[TrialResult]
	cells  *resultstore.Mem[stats.Interval]
}

// NewTrialMemo returns an empty in-memory trial store for Config.Memo.
func NewTrialMemo() *TrialMemo {
	return &TrialMemo{trials: resultstore.NewMem[TrialResult](), cells: resultstore.NewMem[stats.Interval]()}
}

// tier returns the trial tier (nil for a nil memo, which the nil-safe
// resultstore.Mem methods turn into always-miss, drop-writes).
func (m *TrialMemo) tier() *resultstore.Mem[TrialResult] {
	if m == nil {
		return nil
	}
	return m.trials
}

// Get implements TrialStore.
func (m *TrialMemo) Get(key uint64) (TrialResult, bool) { return m.tier().Get(key) }

// Put implements TrialStore.
func (m *TrialMemo) Put(key uint64, r TrialResult) { m.tier().Put(key, r) }

// GetOrCompute implements TrialStore.
func (m *TrialMemo) GetOrCompute(key uint64, compute func() (TrialResult, error)) (TrialResult, error) {
	return m.tier().GetOrCompute(key, compute)
}

// Stats implements TrialStore: the trial tier's counters.
func (m *TrialMemo) Stats() resultstore.Stats { return m.tier().Stats() }

// Close implements TrialStore as a no-op.
func (m *TrialMemo) Close() error { return nil }

// Cells implements TrialStore.
func (m *TrialMemo) Cells() resultstore.Store[stats.Interval] {
	if m == nil {
		return (*resultstore.Mem[stats.Interval])(nil)
	}
	return m.cells
}

// cellsDir is the cells tier's directory inside a durable store. The
// trial tier's open scan reads only segment files, so it never sees it.
const cellsDir = "cells"

// diskTrialStore is OpenTrialStore's TrialStore: the trial tier in the
// store directory and the cells tier in its cells/ subdirectory, two
// independent resultstore.Disk segment sets.
type diskTrialStore struct {
	*resultstore.Disk[TrialResult]
	cells resultstore.Store[stats.Interval]
}

// Cells implements TrialStore.
func (s *diskTrialStore) Cells() resultstore.Store[stats.Interval] { return s.cells }

// Close implements TrialStore: it flushes and closes both tiers.
func (s *diskTrialStore) Close() error {
	return errors.Join(s.Disk.Close(), s.cells.Close())
}

// OpenTrialStore opens (creating if needed) the durable trial store at
// dir for Config.Memo: every intact record on disk is loaded at open, and
// every newly-simulated trial is appended, so repeated runs are
// incremental across processes. Corrupt or stale-schema records are
// skipped with a warning and recomputed; an unusable directory fails fast
// unless resultstore.WithDegradedFallback(true) is passed. The cells tier
// under dir/cells never fails the open: an unusable one degrades to
// memory-only with one warning, and a store whose trial tier opened
// degraded keeps its cells in memory without a second one. Close the
// store to flush.
func OpenTrialStore(dir string, opts ...resultstore.Option) (TrialStore, error) {
	trials, err := resultstore.Open[TrialResult](dir, trialCodec{}, opts...)
	if err != nil {
		return nil, err
	}
	s := &diskTrialStore{Disk: trials, cells: resultstore.NewMem[stats.Interval]()}
	if trials.Stats().Degraded {
		return s, nil
	}
	cellOpts := append(opts[:len(opts):len(opts)], resultstore.WithDegradedFallback(true))
	if cells, err := resultstore.Open[stats.Interval](filepath.Join(dir, cellsDir), intervalCodec{}, cellOpts...); err == nil {
		s.cells = cells
	}
	return s, nil
}

// openTrialStoreWarn is OpenTrialStore with a warning sink (test seam).
func openTrialStoreWarn(dir string, warn io.Writer) (TrialStore, error) {
	return OpenTrialStore(dir, resultstore.WithWarnWriter(warn))
}

// MergeTrialStores loads every intact trial record of the trial stores at
// dirs into dst — the shard-assembly path: after N `-shard i/N -store dir`
// runs, one merge run unions the shard stores and re-renders the figure
// with zero recomputation. Shard runs aggregate no cells, so the cells
// tiers are left alone; the merge run computes its cells' intervals.
func MergeTrialStores(dst TrialStore, dirs ...string) error {
	return resultstore.Merge[TrialResult](trialTier(dst), trialCodec{}, dirs)
}

// trialTier returns the trial tier of this package's stores, whose
// concrete type Merge folds its audit counters into, and any other
// TrialStore as it is.
func trialTier(st TrialStore) resultstore.Store[TrialResult] {
	switch s := st.(type) {
	case *TrialMemo:
		return s.tier()
	case *diskTrialStore:
		return s.Disk
	}
	return st
}

// StoreStatsLine renders one store's counters for the CLIs' -v output.
// Every trial consults the store before simulating, so each simulation is
// a miss; a miss answered from its cell's seed-free slot simulated
// nothing, and the simulation count is misses minus those shared
// repetitions. The shared count is process-wide, like the deployment
// counters: exact in a process that ran one store (every CLI), and not
// subtracted when it exceeds this store's misses, which means it also
// counts runs outside this store.
func StoreStatsLine(st TrialStore) string {
	return storeStatsLine(st.Stats(), SharedRepetitions(), st.Cells().Stats())
}

// storeStatsLine is StoreStatsLine over the trial tier's stats snapshot, a
// shared repetition count and the cells tier's snapshot.
func storeStatsLine(s resultstore.Stats, shared uint64, cells resultstore.Stats) string {
	sims := s.Misses
	if shared <= sims {
		sims -= shared
	}
	line := fmt.Sprintf("store: %d hits, %d misses (%d simulations), %d records loaded, %d appended, %d corrupt skipped, %d entries, %d bytes on disk",
		s.Hits, s.Misses, sims, s.Loaded, s.Appended, s.Corrupt, s.Entries, s.DiskBytes)
	// The robustness counters only earn a mention when something happened:
	// the everything-went-fine line stays byte-stable for scripts (and
	// eyes) that learned the original format.
	if s.Retries > 0 || s.Recovered > 0 {
		line += fmt.Sprintf(", %d retries (%d recovered)", s.Retries, s.Recovered)
	}
	if s.Warnings > 0 {
		line += fmt.Sprintf(", %d warnings", s.Warnings)
	}
	if s.Degraded {
		line += fmt.Sprintf(", DEGRADED to memory-only (%d results unpersisted)", s.Unpersisted)
	}
	// Reuse counters ride the same append-only convention: they are
	// process-wide (a trial deployment is not a store operation), and a
	// process that deployed nothing keeps the original line byte-stable.
	if built, reused := DeployStats(); built+reused > 0 {
		line += fmt.Sprintf(", %d deployments reused (%d built)", reused, built)
	}
	if shared > 0 {
		line += fmt.Sprintf(", %d repetitions shared", shared)
	}
	if hits, misses := topology.IndexCacheStats(); hits+misses > 0 {
		line += fmt.Sprintf(", %d topology index cache hits (%d misses)", hits, misses)
	}
	if cells.Hits+cells.Misses > 0 {
		line += fmt.Sprintf(", %d cell intervals replayed (%d computed)", cells.Hits, cells.Misses)
	}
	return line
}

// trialRecordSchema versions the durable TrialResult encoding. Bump it
// whenever the record walk below changes — including any field added to
// sched.Breakdown — so old records fail decoding and are recomputed
// instead of being misread.
const trialRecordSchema = 1

// trialRecordLen is the fixed encoded size: version byte, Metric, the 11
// Breakdown time channels, the 7 Breakdown event counters.
const trialRecordLen = 1 + 8 + 11*8 + 7*8

// trialCodec is the canonical versioned encoding of TrialResult (see
// resultstore.Codec): explicit field order, fixed widths, exact float bit
// patterns — a stored trial replays bit-identically to a simulated one.
type trialCodec struct{}

// Append implements resultstore.Codec.
func (trialCodec) Append(dst []byte, r TrialResult) []byte {
	var e resultstore.Enc
	e.Version(trialRecordSchema)
	e.F64(r.Metric)
	b := &r.Breakdown
	for _, t := range [...]sim.Time{
		b.UsefulWork, b.SwitchTime, b.MigrationTime, b.AcctTime, b.ChurnTime,
		b.ThrottleTime, b.IRQTime, b.VirtioTime, b.MsgTime, b.NestedTime, b.WanderTime,
	} {
		e.I64(int64(t))
	}
	for _, c := range [...]uint64{
		b.Switches, b.Migrations, b.Steals, b.Wakeups, b.IOs, b.Messages, b.Throttles,
	} {
		e.U64(c)
	}
	return append(dst, e.Bytes()...)
}

// Decode implements resultstore.Codec.
func (trialCodec) Decode(payload []byte) (TrialResult, error) {
	if len(payload) != trialRecordLen {
		return TrialResult{}, fmt.Errorf("trial record is %d bytes, want %d", len(payload), trialRecordLen)
	}
	if payload[0] != trialRecordSchema {
		return TrialResult{}, fmt.Errorf("trial record schema %d, want %d", payload[0], trialRecordSchema)
	}
	// Fixed offsets: word i is payload[1+8i:], in Append's order.
	p := payload[1:trialRecordLen]
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }
	return TrialResult{
		Metric: math.Float64frombits(word(0)),
		Breakdown: sched.Breakdown{
			UsefulWork:    sim.Time(word(1)),
			SwitchTime:    sim.Time(word(2)),
			MigrationTime: sim.Time(word(3)),
			AcctTime:      sim.Time(word(4)),
			ChurnTime:     sim.Time(word(5)),
			ThrottleTime:  sim.Time(word(6)),
			IRQTime:       sim.Time(word(7)),
			VirtioTime:    sim.Time(word(8)),
			MsgTime:       sim.Time(word(9)),
			NestedTime:    sim.Time(word(10)),
			WanderTime:    sim.Time(word(11)),
			Switches:      word(12),
			Migrations:    word(13),
			Steals:        word(14),
			Wakeups:       word(15),
			IOs:           word(16),
			Messages:      word(17),
			Throttles:     word(18),
		},
	}, nil
}

// cellSchema versions the cells tier: the first byte of every cell key
// and of every interval record. Bump it whenever stats.BootstrapCI's
// result for given inputs, the key walk (cellKey) or the record layout
// changes, so old records stop matching or fail decoding and are
// recomputed instead of being misread.
const cellSchema = 1

// intervalRecordLen is the fixed encoded size: version byte, Lo, Hi and
// Confidence.
const intervalRecordLen = 1 + 3*8

// intervalCodec is the canonical versioned encoding of stats.Interval
// (see resultstore.Codec), exact float bit patterns included, so a
// replayed interval renders the bytes the computed one did.
type intervalCodec struct{}

// Append implements resultstore.Codec.
func (intervalCodec) Append(dst []byte, iv stats.Interval) []byte {
	var e resultstore.Enc
	e.Version(cellSchema)
	e.F64(iv.Lo)
	e.F64(iv.Hi)
	e.F64(iv.Confidence)
	return append(dst, e.Bytes()...)
}

// Decode implements resultstore.Codec.
func (intervalCodec) Decode(payload []byte) (stats.Interval, error) {
	if len(payload) != intervalRecordLen {
		return stats.Interval{}, fmt.Errorf("interval record is %d bytes, want %d", len(payload), intervalRecordLen)
	}
	if payload[0] != cellSchema {
		return stats.Interval{}, fmt.Errorf("interval record schema %d, want %d", payload[0], cellSchema)
	}
	d := resultstore.NewDec(payload[1:])
	return stats.Interval{Lo: d.F64(), Hi: d.F64(), Confidence: d.F64()}, nil
}
