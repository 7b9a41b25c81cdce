// Package hypervisor models the KVM/QEMU layer (paper §II-B): it builds VM
// guest machines whose cores are vCPUs, applying the virtualization overlay
// the paper measures — a compute tax from the abstraction layers, a virtio
// per-IO cost, the cost of inter-vCPU messages, and, for vanilla (unpinned)
// VMs, the cost of vCPUs wandering across host CPUs at the whim of the host
// scheduler. VMs beat containers for MPI (Fig 4) because intra-guest
// messages skip the container network-namespace path, not because guest
// messages are cheap: see GuestMsgSyncCost.
//
// Because the paper evaluates each workload in isolation ("there is no other
// coexisting workload in the system", §III-A), vCPUs always receive full host
// cores; host-level effects are therefore applied as per-event overlays
// rather than by nesting two schedulers (the host-idle assumption).
package hypervisor

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Params calibrate the virtualization overlay.
type Params struct {
	// CPUTax multiplies guest compute for tasks with VMTaxWeight 1 (the
	// paper measures ≈2× for FFmpeg on their Qemu 2.11 / kernel 5.4 stack).
	CPUTax float64
	// IOScale stretches device latency/service seen from the guest
	// (paravirtual queueing).
	IOScale float64
	// WanderIOScale multiplies IOScale for vanilla (unpinned) VMs: while
	// vCPUs float, virtio completion vectors keep landing on stale CPUs and
	// the IO path runs longer. Pinning the vCPUs (vcpupin) removes it —
	// the reason pinned VMs consistently beat vanilla VMs for IO-bound
	// applications (Fig 5).
	WanderIOScale float64
	// VirtioExtra is the per-IO completion cost (descriptor ring + VM exit).
	VirtioExtra sim.Time
	// VirtioMiss / VirtioMissProb charge completions landing on stale CPUs
	// while vanilla vCPUs wander; pinning sets the probability to zero.
	VirtioMiss     sim.Time
	VirtioMissProb float64
	// GuestMsgSyncCost is the per-message sync cost of intra-guest
	// messages, which travel through shared memory; the calibrated 10µs is
	// a little above the host kernel's 8µs. It is not what gives VMs their
	// MPI lead over containers (Fig 4): at 64µs (machine.AblateVMFastpath) a
	// pinned VM at 16xLarge still beats both containers, which the
	// vm-fastpath-gives-mpi-lead finding records as Refuted. The lead is the
	// container network-namespace path (sched.Params.MsgNSPerCPU and
	// MsgNSCopyScale) that intra-guest messages skip.
	GuestMsgSyncCost sim.Time
	// GuestMsgCopyScale scales copy costs inside the guest.
	GuestMsgCopyScale float64
	// GuestNSCopyScale is the copy multiplier of the container bridge path
	// inside the guest (vhost-assisted: cheaper than the host bridge path).
	GuestNSCopyScale float64
	// GuestCNIOScale scales IO latency for containerized guests (VMCN):
	// the overlay filesystem's extra page-cache layer inside the guest
	// absorbs part of the IO traffic, which is why VMCN slightly beats VM
	// for IO-bound applications (Fig 5 discussion).
	GuestCNIOScale float64
	// GuestLineScale inflates line-transfer costs inside the guest: the
	// flat vCPU topology hides that vCPUs sit on different host sockets.
	GuestLineScale float64
	// GuestCacheScale inflates guest-internal migration penalties for the
	// same reason: a "same-socket" move between vCPUs is usually a
	// cross-socket move between the host cores backing them.
	GuestCacheScale float64
	// GuestWakeExtra is the per-wakeup virtual-IPI / VM-exit cost.
	GuestWakeExtra sim.Time
	// WanderStallRate/WanderStallCost are the floating-vCPU stall process
	// of vanilla VMs: host load balancing moves vCPU threads, stalling the
	// guest while per-vCPU cache/TLB state refills.
	WanderStallRate float64
	WanderStallCost sim.Time
	// NestedSwitchCost is the per-context-switch cost base of running a
	// cgroup *inside* the guest (VMCN): thread-group usage counters contend
	// under virtualized timekeeping. The scheduler scales it by how far the
	// thread group's runnable threads oversubscribe the vCPUs, which is
	// exactly when the paper sees VMCN's extra overhead (Fig 3, small
	// instances), and why single-threaded web processes don't pay it
	// (Fig 5, where VMCN beats VM).
	NestedSwitchCost sim.Time
	// NestedSwitchMax caps one nested-switch charge.
	NestedSwitchMax sim.Time
}

// DefaultParams returns the calibrated defaults.
func DefaultParams() Params {
	return Params{
		CPUTax:            2.0,
		IOScale:           1.1,
		WanderIOScale:     1.18,
		VirtioExtra:       30 * sim.Microsecond,
		VirtioMiss:        60 * sim.Microsecond,
		VirtioMissProb:    0.35,
		GuestMsgSyncCost:  10 * sim.Microsecond,
		GuestMsgCopyScale: 1.0,
		GuestNSCopyScale:  2.2,
		GuestCNIOScale:    0.95,
		GuestLineScale:    4.0,
		GuestCacheScale:   4.75,
		GuestWakeExtra:    4 * sim.Microsecond,
		WanderStallRate:   4,
		WanderStallCost:   1500 * sim.Microsecond,
		NestedSwitchCost:  900 * sim.Microsecond,
		NestedSwitchMax:   3 * sim.Millisecond,
	}
}

// ParamsFor returns the calibrated defaults with a's hypervisor-side
// ablation applied. machine.AblateVMFastpath takes the cheap shared-memory
// message path away: guest messages pay a 64µs sync cost instead of 10µs,
// and guest line transfers twice the default scale.
func ParamsFor(a machine.Ablation) Params {
	p := DefaultParams()
	if a&machine.AblateVMFastpath != 0 {
		p.GuestMsgSyncCost = 64 * sim.Microsecond
		p.GuestLineScale = 8
	}
	return p
}

// VMSpec describes one VM.
type VMSpec struct {
	Name  string
	VCPUs int
	// Pinned statically binds vCPUs to host CPUs (libvirt <vcpupin>),
	// eliminating vCPU wander.
	Pinned bool
	// Containerized prepares the guest for a container inside it (VMCN):
	// enables nested switch accounting.
	Containerized bool
}

// guestTopoCache interns guest topologies: a sweep builds the same few
// (name, vCPUs) shapes thousands of times, and each topology.New carries an
// O(n²) distance matrix. Topologies are immutable after New, and GuestConfig
// never mutates the shared instance, so interning is safe; the mutex covers
// trial workers building guests in parallel.
var guestTopoCache struct {
	sync.Mutex
	m map[guestTopoKey]*topology.Topology
}

type guestTopoKey struct {
	name  string
	vcpus int
}

// GuestTopology returns the flat topology a guest sees: one virtual socket of
// single-thread vCPUs (QEMU default without explicit -smp topology). The
// returned topology is shared across calls with the same name and vCPU count
// and must not be mutated.
func GuestTopology(spec VMSpec) (*topology.Topology, error) {
	if spec.VCPUs <= 0 {
		return nil, fmt.Errorf("hypervisor: VM %q needs at least one vCPU", spec.Name)
	}
	key := guestTopoKey{name: spec.Name, vcpus: spec.VCPUs}
	guestTopoCache.Lock()
	defer guestTopoCache.Unlock()
	if t := guestTopoCache.m[key]; t != nil {
		return t, nil
	}
	t, err := topology.New("guest-"+spec.Name, 1, spec.VCPUs, 1)
	if err != nil {
		return nil, err
	}
	if guestTopoCache.m == nil {
		guestTopoCache.m = make(map[guestTopoKey]*topology.Topology)
	}
	guestTopoCache.m[key] = t
	return t, nil
}

// GuestConfig derives the guest machine configuration for spec on the
// given host: the host's calibration (scheduler/cache/cgroup/IRQ params
// and channels) with the virtualization overlay applied. Because the
// result is itself a machine.Config, it can serve as the "host" of a further
// GuestConfig call, which is how platform stacks express nested
// virtualization (a VM inside a VM). Multiplicative and additive costs
// compound across levels — compute tax on compute tax, a virtio overlay per
// paravirtual hop, the physical host's NUMA spread all the way down — so a
// deeper stack is strictly more expensive, while a single level reproduces
// the historical overlay exactly (the physical host's ComputeTax is 1 and
// its virtio costs are 0).
func GuestConfig(host machine.Config, spec VMSpec, p Params, seed uint64) (machine.Config, error) {
	gtopo, err := GuestTopology(spec)
	if err != nil {
		return machine.Config{}, err
	}
	cfg := host // copy calibration
	cfg.Name = "vm-" + spec.Name
	cfg.Topo = gtopo
	cfg.Seed = seed
	cfg.ComputeTax = host.ComputeTax * p.CPUTax
	// Guest memory is backed by host pages spread across the *physical*
	// host's NUMA nodes; the interleave penalty follows that socket count
	// through every nesting level (a guest host already carries it in
	// NUMASockets; a physical host derives it from its topology).
	cfg.NUMASockets = host.NUMASockets
	if cfg.NUMASockets == 0 {
		cfg.NUMASockets = host.Topo.Sockets
	}
	cfg.IOScale = host.IOScale * p.IOScale
	cfg.VirtioExtra = host.VirtioExtra + p.VirtioExtra
	cfg.VirtioMiss = host.VirtioMiss + p.VirtioMiss
	// Wander overheads compose across nesting levels: pinning THIS guest's
	// vCPUs (to the CPUs of the level beneath) adds no wander of its own,
	// but cannot undo an outer vanilla level's vCPUs floating on physical
	// cores — so the pinned branch inherits the host-side values untouched
	// (zero for physical hosts, reproducing the historical single-level
	// behavior). A vanilla level adds its own wander on top: miss
	// probabilities combine as independent events, stall rates add, and
	// the per-stall cost keeps the dearest level's value.
	if !spec.Pinned {
		cfg.VirtioMissProb = 1 - (1-host.VirtioMissProb)*(1-p.VirtioMissProb)
		if p.WanderIOScale > 0 {
			cfg.IOScale *= p.WanderIOScale
		}
		cfg.WanderStallRate = host.WanderStallRate + p.WanderStallRate
		if p.WanderStallCost > cfg.WanderStallCost {
			cfg.WanderStallCost = p.WanderStallCost
		}
	}
	cfg.MsgSyncCost = p.GuestMsgSyncCost
	cfg.MsgCopyPerKB = sim.Time(float64(host.MsgCopyPerKB) * p.GuestMsgCopyScale)
	if p.GuestLineScale > 0 {
		cfg.MsgLineScale = host.MsgLineScale * p.GuestLineScale
	}
	if p.GuestCacheScale > 0 {
		cfg.Cache.SMTSiblingPenalty = sim.Time(float64(cfg.Cache.SMTSiblingPenalty) * p.GuestCacheScale)
		cfg.Cache.SameSocketPenalty = sim.Time(float64(cfg.Cache.SameSocketPenalty) * p.GuestCacheScale)
	}
	cfg.WakeExtra = host.WakeExtra + p.GuestWakeExtra
	if spec.Containerized {
		cfg.NestedSwitchCost = p.NestedSwitchCost
		cfg.NestedSwitchMax = p.NestedSwitchMax
		cfg.MsgNSCopyScale = p.GuestNSCopyScale
		if p.GuestCNIOScale > 0 {
			cfg.IOScale *= p.GuestCNIOScale
		}
	} else {
		cfg.NestedSwitchCost = 0
	}
	return cfg, nil
}
