package experiments

// The durable trial key. A trial's store key fingerprints everything its
// result depends on — stack, instance size, host topology, hypervisor
// calibration, time limit, memory, every tenant workload's concrete
// parameters, the trial's ablations and its seed — as a canonical
// versioned encoding: explicit field walks in declaration order,
// fixed-width little-endian values, a schema version byte up front
// (resultstore.Enc). Reflective %+v formatting would silently change
// meaning whenever a struct evolved; here evolution is explicit: any
// change to a walked struct must extend the matching append function AND
// bump trialKeySchema, at which point old durable records simply stop
// matching and are recomputed. The pinned-literal and field-coverage
// tests in trialkey_test.go enforce that discipline.
//
// The seed comes last. Everything before it, the key tail, is fixed
// within a cell, so a cell hashes its tail once and keeps the FNV-1a
// state (trialCell.key); each repetition then hashes only its 8 seed
// bytes on from there.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cache"
	"repro/internal/hypervisor"
	"repro/internal/resultstore"
	"repro/internal/workload"
)

// trialKeySchema versions the whole key encoding. Bump it whenever the
// field walk below changes shape or meaning — including any field added to
// hypervisor.Params or a workload driver struct.
const trialKeySchema = 2

// trialKey returns the durable store key of one trial: the hash of the
// version byte, the key tail and the seed.
func trialKey(cfg Config, in trialInput) uint64 {
	var e resultstore.Enc
	e.Version(trialKeySchema)
	appendKeyTail(&e, cfg, in)
	e.U64(in.seed)
	return e.Sum64()
}

// appendKeyTail appends everything of the key between the version byte
// and the seed: all of it is fixed within a cell, so the repetitions of
// one cell share it (trialCell.key).
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
	e.U64(uint64(in.ablate))
}

// keyTailCap pre-sizes the key-tail encoder: the tails of the registered
// scenarios and sweeps are a few hundred bytes, so one allocation holds
// any of them instead of a chain of doublings.
const keyTailCap = 512

// key returns trialKey(cfg, in) for one repetition of the cell: it hashes
// the repetition's seed on from the cell's tail state. The first
// repetition to find no tail state published encodes the version byte and
// the tail, hashes them and publishes the state; repetitions racing to do
// so publish equal states, and none waits for another. A warm key
// allocates nothing once the state is published.
func (c *trialCell) key(cfg Config, in trialInput) uint64 {
	if !c.tailDone.Load() {
		var e resultstore.Enc
		e.Grow(keyTailCap)
		e.Version(trialKeySchema)
		appendKeyTail(&e, cfg, in)
		c.tailSum.Store(e.Sum64())
		c.tailDone.Store(true)
	}
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], in.seed)
	return cache.HashBytesFrom(c.tailSum.Load(), seed[:])
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
