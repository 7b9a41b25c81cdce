package container

import (
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/topology"
)

func host() *machine.Machine {
	return machine.MustNew(machine.HostDefaults(topology.PaperHost(), 1))
}

func TestVanillaContainerUsesQuota(t *testing.T) {
	cn, err := Create(host(), Spec{Name: "v", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cn.Group.QuotaCores != 4 {
		t.Fatalf("quota %v", cn.Group.QuotaCores)
	}
	if !cn.Group.CPUs.IsEmpty() {
		t.Fatal("vanilla container must not have a cpuset")
	}
	if cn.Mode() != "vanilla" {
		t.Fatal(cn.Mode())
	}
}

func TestPinnedContainerUsesCpuset(t *testing.T) {
	cn, err := Create(host(), Spec{Name: "p", Cores: 4, Pinned: true, NearCPU: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cn.Group.QuotaCores != 0 {
		t.Fatal("pinned container must not have a quota")
	}
	if cn.Group.CPUs.Count() != 4 {
		t.Fatalf("cpuset %v", cn.Group.CPUs)
	}
	if cn.Mode() != "pinned" {
		t.Fatal(cn.Mode())
	}
	if !strings.Contains(cn.String(), "pinned") {
		t.Fatal(cn.String())
	}
}

func TestCHRComputation(t *testing.T) {
	cn, _ := Create(host(), Spec{Name: "c", Cores: 16})
	if got := cn.CHR(); math.Abs(got-16.0/112.0) > 1e-9 {
		t.Fatalf("CHR = %v", got)
	}
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(host(), Spec{Name: "zero", Cores: 0}); err == nil {
		t.Fatal("zero cores must fail")
	}
	if _, err := Create(host(), Spec{Name: "huge", Cores: 1000}); err == nil {
		t.Fatal("oversize container must fail")
	}
}
