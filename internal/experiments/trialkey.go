package experiments

// The durable trial key. A trial's store key fingerprints everything its
// result depends on — seed, stack, instance size, host topology,
// hypervisor calibration, time limit, memory, every tenant workload's
// concrete parameters and the trial's ablations — as a canonical
// versioned encoding: explicit field walks in declaration order,
// fixed-width little-endian values, a schema version byte up front
// (resultstore.Enc). Reflective %+v formatting would silently change
// meaning whenever a struct evolved; here evolution is explicit: any
// change to a walked struct must extend the matching append function AND
// bump trialKeySchema, at which point old durable records simply stop
// matching and are recomputed. The pinned-literal and field-coverage
// tests in trialkey_test.go enforce that discipline.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/hypervisor"
	"repro/internal/resultstore"
	"repro/internal/workload"
)

// trialKeySchema versions the whole key encoding. Bump it whenever the
// field walk below changes shape or meaning — including any field added to
// hypervisor.Params or a workload driver struct.
const trialKeySchema = 1

// trialKey returns the durable store key of one trial.
func trialKey(cfg Config, in trialInput) uint64 {
	var e resultstore.Enc
	e.Version(trialKeySchema)
	e.U64(in.seed)
	appendKeyTail(&e, cfg, in)
	return e.Sum64()
}

// appendKeyTail appends everything of the key after the seed: all of it is
// fixed within a cell, so the repetitions of one cell share these bytes
// (trialCell.key) and only the version byte and the seed are theirs.
func appendKeyTail(e *resultstore.Enc, cfg Config, in trialInput) {
	e.Str(in.stack.Fingerprint())
	e.Int(in.size)
	e.Str(in.host.Fingerprint())
	appendHVKey(e, hypervisor.ParamsFor(in.ablate))
	e.I64(int64(cfg.TimeLimit))
	e.Int(in.memGB)
	e.Int(len(in.ws))
	for _, w := range in.ws {
		appendWorkloadKey(e, w)
	}
	// Ablations are appended only when present: every unablated key stays
	// byte-for-byte what it was before ablations were keyed, so existing
	// durable stores keep hitting without a trialKeySchema bump. The
	// encoding stays unambiguous because the workload walk above is
	// self-delimiting (its count comes first).
	if in.ablate != 0 {
		e.Str("ablate")
		e.U64(uint64(in.ablate))
	}
}

// keyTailCap pre-sizes the key-tail encoder: the tails of the registered
// scenarios and sweeps are a few hundred bytes, so one allocation holds
// any of them instead of a chain of doublings.
const keyTailCap = 512

// key returns trialKey(cfg, in) for one repetition of the cell. A cell
// with seeds keys all its repetitions at once: the first repetition to
// need a key hashes every repetition's head into the shared tail, four
// streams per pass (publishKeys), and the others look theirs up. A
// repetition that arrives while that is under way does not wait; it
// hashes its version byte and seed and continues over the shared tail, as
// a cell without seeds does for every repetition. The tail is encoded by
// whichever repetition first finds it missing and published; two
// repetitions racing to do so encode equal bytes. A warm key allocates
// nothing once the cell's keys or tail are published.
func (c *trialCell) key(cfg Config, in trialInput) uint64 {
	keys := c.keys.Load()
	if keys == nil && c.seeds != nil && c.batching.CompareAndSwap(false, true) {
		keys = c.publishKeys(cfg, in)
	}
	if keys != nil {
		if j := slices.Index(c.seeds, in.seed); j >= 0 {
			return (*keys)[j]
		}
	}
	return cache.HashBytesFrom(keyHead(in.seed), *c.keyTail(cfg, in))
}

// keyTail returns the cell's published key tail, encoding and publishing
// it first when no repetition has.
func (c *trialCell) keyTail(cfg Config, in trialInput) *[]byte {
	if tail := c.tail.Load(); tail != nil {
		return tail
	}
	var e resultstore.Enc
	e.Grow(keyTailCap)
	appendKeyTail(&e, cfg, in)
	b := e.Bytes()
	c.tail.CompareAndSwap(nil, &b)
	return &b
}

// publishKeys computes the key of every repetition seed of the cell,
// hashing the tail for up to four seeds per pass of cache.HashBytesFrom4,
// and publishes them in seed order.
func (c *trialCell) publishKeys(cfg Config, in trialInput) *[]uint64 {
	tail := *c.keyTail(cfg, in)
	keys := make([]uint64, len(c.seeds))
	for j := 0; j < len(keys); j += 4 {
		seeds := c.seeds[j:min(j+4, len(keys))]
		if len(seeds) == 1 {
			keys[j] = cache.HashBytesFrom(keyHead(seeds[0]), tail)
			continue
		}
		// Lanes past the last seed hash the tail too: four streams take
		// about the time of two, so two or three seeds still gain.
		var h [4]uint64
		for l, s := range seeds {
			h[l] = keyHead(s)
		}
		out := cache.HashBytesFrom4(h, tail, tail, tail, tail)
		copy(keys[j:], out[:len(seeds)])
	}
	c.keys.Store(&keys)
	return &keys
}

// keyHead is the FNV-1a state of a trial key after its version byte and
// seed, the part of the key that is a repetition's own.
func keyHead(seed uint64) uint64 {
	var head [9]byte
	head[0] = trialKeySchema
	binary.LittleEndian.PutUint64(head[1:], seed)
	return cache.HashBytes(head[:])
}

// appendHVKey walks hypervisor.Params in declaration order.
func appendHVKey(e *resultstore.Enc, p hypervisor.Params) {
	e.Str("hv")
	e.F64(p.CPUTax)
	e.F64(p.IOScale)
	e.F64(p.WanderIOScale)
	e.I64(int64(p.VirtioExtra))
	e.I64(int64(p.VirtioMiss))
	e.F64(p.VirtioMissProb)
	e.I64(int64(p.GuestMsgSyncCost))
	e.F64(p.GuestMsgCopyScale)
	e.F64(p.GuestNSCopyScale)
	e.F64(p.GuestCNIOScale)
	e.F64(p.GuestLineScale)
	e.F64(p.GuestCacheScale)
	e.I64(int64(p.GuestWakeExtra))
	e.F64(p.WanderStallRate)
	e.I64(int64(p.WanderStallCost))
	e.I64(int64(p.NestedSwitchCost))
	e.I64(int64(p.NestedSwitchMax))
}

// appendWorkloadKey walks one workload's concrete parameters. The five
// registry drivers are encoded field by field in declaration order (this
// covers Quick-mode scaling, which shrinks fields rather than setting a
// flag). A workload type outside the registry falls back to the reflective
// form — stable within a process, but carrying no durable schema
// guarantee, which is exactly the contract arbitrary user types get.
func appendWorkloadKey(e *resultstore.Enc, w workload.Workload) {
	switch d := w.(type) {
	case workload.Transcode:
		e.Str("ffmpeg")
		e.I64(int64(d.TotalWork))
		e.Int(d.Threads)
		e.Int(d.HeavyThreads)
		e.F64(d.LightWorkFrac)
		e.F64(d.SerialFrac)
		e.I64(int64(d.PerProcessOverhead))
		e.Int(d.Segments)
	case workload.MPISearch:
		e.Str("mpi")
		e.Int(d.Ranks)
		e.Int(d.Rounds)
		e.I64(int64(d.TotalCompute))
		e.I64(d.DataPerRound)
		e.I64(d.ScatterBytes)
		e.Int(d.AllreduceEvery)
	case workload.Web:
		e.Str("wordpress")
		e.Int(d.Requests)
		e.Int(d.Workers)
		e.I64(int64(d.ParseCPU))
		e.I64(int64(d.RenderCPU))
		e.I64(int64(d.WriteCPU))
		e.I64(int64(d.SocketLatency))
		e.F64(d.DiskMissProb)
	case workload.NoSQL:
		e.Str("cassandra")
		e.Int(d.Threads)
		e.Int(d.Ops)
		e.F64(d.WriteFrac)
		e.I64(int64(d.Window))
		e.I64(int64(d.OpCPU))
		e.I64(int64(d.SocketLatency))
		e.F64(d.DatasetGB)
		e.F64(d.CacheEff)
		e.F64(d.MinMiss)
		e.Int(d.ReadMissIOs)
		e.F64(d.CompactProb)
		e.Int(d.ThrashMemGB)
		e.Int(d.ThrashIOScale)
		e.F64(d.ThrashCPUScale)
	case workload.Microservice:
		e.Str("microservice")
		e.Int(d.Requests)
		e.Int(d.Frontends)
		e.Int(d.Backends)
		e.I64(int64(d.ParseCPU))
		e.I64(int64(d.RespondCPU))
		e.I64(int64(d.HandleCPU))
		e.I64(int64(d.SocketLatency))
		e.I64(d.RPCBytes)
	default:
		e.Str("reflect")
		e.Str(fmt.Sprintf("%s:%+v", w.Name(), w))
	}
}
