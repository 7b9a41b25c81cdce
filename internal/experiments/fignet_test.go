package experiments

import (
	"sync"
	"testing"
)

var (
	onceNet sync.Once
	figNet  Figure
	errNet  error
)

func netFigure(t *testing.T) Figure {
	t.Helper()
	onceNet.Do(func() {
		figNet, errNet = RunRegistered("net", Config{Quick: true, Reps: 2, Seed: 1234})
	})
	if errNet != nil {
		t.Fatalf("fig net: %v", errNet)
	}
	return figNet
}

// TestFigNetVMFlatVirtioTax: the VM family pays a roughly size-invariant
// network tax (virtio-net + guest wake path) that pinning cannot remove —
// the PTO pattern, now on the network path.
func TestFigNetVMFlatVirtioTax(t *testing.T) {
	f := netFigure(t)
	for _, x := range f.XLabels {
		rv := ratio(t, f, "Vanilla VM", x)
		rp := ratio(t, f, "Pinned VM", x)
		if rv < 1.25 || rv > 1.9 {
			t.Errorf("%s: vanilla VM network tax %.2f outside the flat band", x, rv)
		}
		if rv-rp > 0.25 {
			t.Errorf("%s: pinning 'fixed' the virtio tax (%.2f vs %.2f)", x, rv, rp)
		}
	}
}

// TestFigNetVanillaCNBridgePSO: a small vanilla container pays the bridge
// namespace path plus quota churn — a PSO that fades with CHR.
func TestFigNetVanillaCNBridgePSO(t *testing.T) {
	f := netFigure(t)
	small := ratio(t, f, "Vanilla CN", "xLarge")
	big := ratio(t, f, "Vanilla CN", "16xLarge")
	if small < 1.35 {
		t.Errorf("small vanilla CN must pay the bridge/quota PSO: %.2f", small)
	}
	if big > 1.2 {
		t.Errorf("vanilla CN must converge at high CHR: %.2f", big)
	}
	if small <= big {
		t.Errorf("network PSO must shrink with size: %.2f → %.2f", small, big)
	}
}

// TestFigNetPinnedCNNearBM: with NIC-IRQ-adjacent pinning, a container's
// network path is essentially native.
func TestFigNetPinnedCNNearBM(t *testing.T) {
	f := netFigure(t)
	for _, x := range f.XLabels {
		if r := ratio(t, f, "Pinned CN", x); r < 0.9 || r > 1.15 {
			t.Errorf("%s: pinned CN %.2f should ride at bare metal", x, r)
		}
	}
}

// TestFigNetVMCNTracksVM: the container layer inside the guest adds no
// material network overhead on top of the VM's (single-thread processes,
// intra-guest bridge is cheap).
func TestFigNetVMCNTracksVM(t *testing.T) {
	f := netFigure(t)
	for _, x := range f.XLabels {
		vm := ratio(t, f, "Pinned VM", x)
		vmcn := ratio(t, f, "Pinned VMCN", x)
		if vmcn > vm*1.15 {
			t.Errorf("%s: VMCN (%.2f) should track VM (%.2f) on the network path", x, vmcn, vm)
		}
	}
}

func TestFigNetScales(t *testing.T) {
	f := netFigure(t)
	first := mean(t, f, "Vanilla BM", "xLarge")
	last := mean(t, f, "Vanilla BM", "16xLarge")
	if last >= first {
		t.Errorf("the service must scale with cores: %.3f → %.3f", first, last)
	}
}
