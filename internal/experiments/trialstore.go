package experiments

// The typed trial-result store layer: TrialStore is resultstore.Store
// instantiated for TrialResult, with the versioned canonical record codec
// that makes results durable across processes. NewTrialMemo keeps the
// historical in-memory behavior (and name); OpenTrialStore adds the
// disk-backed tier, and MergeTrialStores assembles shard runs.

import (
	"fmt"
	"io"

	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TrialStore is the pluggable trial-result store behind Config.Memo: the
// in-memory memo, or a durable disk-backed store whose results survive the
// process and can be merged across shard runs.
type TrialStore = resultstore.Store[TrialResult]

// TrialMemo is the in-memory TrialStore tier — the historical per-process
// memoization table. Share one across repeated or overlapping runs via
// Config.Memo to skip already-simulated cells; it is safe for concurrent
// use by parallel workers.
type TrialMemo = resultstore.Mem[TrialResult]

// NewTrialMemo returns an empty in-memory trial store for Config.Memo.
func NewTrialMemo() *TrialMemo { return resultstore.NewMem[TrialResult]() }

// OpenTrialStore opens (creating if needed) the durable trial store at
// dir for Config.Memo: every intact record on disk is loaded at open, and
// every newly-simulated trial is appended, so repeated runs are
// incremental across processes. Corrupt or stale-schema records are
// skipped with a warning and recomputed; an unusable directory fails fast
// unless resultstore.WithDegradedFallback(true) is passed. Close the store
// to flush.
func OpenTrialStore(dir string, opts ...resultstore.Option) (TrialStore, error) {
	return resultstore.Open[TrialResult](dir, trialCodec{}, opts...)
}

// openTrialStoreWarn is OpenTrialStore with a warning sink (test seam).
func openTrialStoreWarn(dir string, warn io.Writer) (TrialStore, error) {
	return OpenTrialStore(dir, resultstore.WithWarnWriter(warn))
}

// MergeTrialStores loads every intact record of the trial stores at dirs
// into dst — the shard-assembly path: after N `-shard i/N -store dir`
// runs, one merge run unions the shard stores and re-renders the figure
// with zero recomputation.
func MergeTrialStores(dst TrialStore, dirs ...string) error {
	return resultstore.Merge[TrialResult](dst, trialCodec{}, dirs)
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
	return storeStatsLine(st.Stats(), SharedRepetitions())
}

// storeStatsLine is StoreStatsLine over a stats snapshot and a shared
// repetition count.
func storeStatsLine(s resultstore.Stats, shared uint64) string {
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
	d := resultstore.NewDec(payload[1:])
	var r TrialResult
	r.Metric = d.F64()
	for _, t := range [...]*sim.Time{
		&r.Breakdown.UsefulWork, &r.Breakdown.SwitchTime, &r.Breakdown.MigrationTime,
		&r.Breakdown.AcctTime, &r.Breakdown.ChurnTime, &r.Breakdown.ThrottleTime,
		&r.Breakdown.IRQTime, &r.Breakdown.VirtioTime, &r.Breakdown.MsgTime,
		&r.Breakdown.NestedTime, &r.Breakdown.WanderTime,
	} {
		*t = sim.Time(d.I64())
	}
	for _, c := range [...]*uint64{
		&r.Breakdown.Switches, &r.Breakdown.Migrations, &r.Breakdown.Steals,
		&r.Breakdown.Wakeups, &r.Breakdown.IOs, &r.Breakdown.Messages, &r.Breakdown.Throttles,
	} {
		*c = d.U64()
	}
	return r, nil
}
