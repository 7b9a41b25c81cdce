package hypervisor

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

func hostCfg() machine.Config {
	return machine.HostDefaults(topology.PaperHost(), 1)
}

func TestGuestTopologyFlat(t *testing.T) {
	topo, err := GuestTopology(VMSpec{Name: "v", VCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumCPUs() != 8 || topo.Sockets != 1 || topo.ThreadsPerCore != 1 {
		t.Fatalf("guest topo: %v", topo)
	}
	if _, err := GuestTopology(VMSpec{Name: "bad"}); err == nil {
		t.Fatal("zero vCPUs must fail")
	}
}

// guest builds spec's guest machine on the paper host.
func guest(t *testing.T, spec VMSpec, p Params) *machine.Machine {
	t.Helper()
	cfg, err := GuestConfig(hostCfg(), spec, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGuestInheritsHostNUMA(t *testing.T) {
	g := guest(t, VMSpec{Name: "v", VCPUs: 4}, DefaultParams())
	if g.Cfg.NUMASockets != 4 {
		t.Fatalf("guest NUMA sockets %d, want the host's 4", g.Cfg.NUMASockets)
	}
	if g.Cfg.ComputeTax != DefaultParams().CPUTax {
		t.Fatal("tax not applied")
	}
}

func TestPinnedVsVanillaOverlay(t *testing.T) {
	p := DefaultParams()
	pinned := guest(t, VMSpec{Name: "p", VCPUs: 4, Pinned: true}, p)
	vanilla := guest(t, VMSpec{Name: "v", VCPUs: 4}, p)
	if pinned.Cfg.VirtioMissProb != 0 || pinned.Cfg.WanderStallRate != 0 {
		t.Fatal("pinned VM must not wander")
	}
	if vanilla.Cfg.VirtioMissProb == 0 || vanilla.Cfg.WanderStallRate == 0 {
		t.Fatal("vanilla VM must wander")
	}
	if vanilla.Cfg.IOScale <= pinned.Cfg.IOScale {
		t.Fatal("vanilla IO path should be slower (completion-vector misses)")
	}
}

func TestContainerizedGuestOverlay(t *testing.T) {
	p := DefaultParams()
	plain := guest(t, VMSpec{Name: "vm", VCPUs: 2}, p)
	vmcn := guest(t, VMSpec{Name: "vmcn", VCPUs: 2, Containerized: true}, p)
	if plain.Cfg.NestedSwitchCost != 0 {
		t.Fatal("plain VM must not pay nested accounting")
	}
	if vmcn.Cfg.NestedSwitchCost == 0 {
		t.Fatal("VMCN guest must pay nested accounting")
	}
	if vmcn.Cfg.IOScale >= plain.Cfg.IOScale {
		t.Fatal("overlay page cache should make VMCN IO slightly cheaper")
	}
}

func TestGuestRunsWorkload(t *testing.T) {
	g := guest(t, VMSpec{Name: "w", VCPUs: 2, Pinned: true}, DefaultParams())
	g.Spawn(sched.TaskSpec{Name: "guest-task", VMTaxWeight: 1,
		Program: sched.Sequence(sched.Compute(50 * sim.Millisecond))}, 0)
	res := g.Run(0)
	// tax 2.0 × NUMA(memBound 0 ⇒ 1.0) ⇒ ≈100ms.
	if res.Makespan < 95*sim.Millisecond {
		t.Fatalf("virtualization tax missing: %v", res.Makespan)
	}
}

// TestParamsForAblation: only the fast-path bit moves the hypervisor
// calibration, and only its two message-path fields.
func TestParamsForAblation(t *testing.T) {
	def := DefaultParams()
	if got := ParamsFor(machine.AblateNUMA | machine.AblateAcctWalk); got != def {
		t.Fatalf("host ablations changed the hypervisor params: %+v", got)
	}
	got := ParamsFor(machine.AblateVMFastpath)
	if got.GuestMsgSyncCost != 64*sim.Microsecond || got.GuestLineScale != 8 {
		t.Fatalf("fast-path ablation = %v sync, %v line scale", got.GuestMsgSyncCost, got.GuestLineScale)
	}
	got.GuestMsgSyncCost, got.GuestLineScale = def.GuestMsgSyncCost, def.GuestLineScale
	if got != def {
		t.Fatalf("fast-path ablation moved other fields: %+v", got)
	}
}
