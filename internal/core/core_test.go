package core

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/topology"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		p    Profile
		want AppClass
	}{
		{Profile{Name: "ffmpeg", CPUUtilization: 0.98, IOPerSecond: 5}, CPUBound},
		{Profile{Name: "mpi", CPUUtilization: 0.7, MessagesPerSecond: 5000}, Parallel},
		{Profile{Name: "web", CPUUtilization: 0.3, IOPerSecond: 500}, IOBound},
		{Profile{Name: "nosql", CPUUtilization: 0.4, IOPerSecond: 9000}, UltraIOBound},
	}
	for _, c := range cases {
		if got := Classify(c.p); got != c.want {
			t.Errorf("%s classified %v, want %v", c.p.Name, got, c.want)
		}
	}
	for _, c := range []AppClass{CPUBound, Parallel, IOBound, UltraIOBound, AppClass(9)} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}

func TestCHR(t *testing.T) {
	h := topology.PaperHost()
	if got := CHR(16, h); math.Abs(got-0.142857) > 1e-4 {
		t.Fatalf("CHR = %v", got)
	}
	if !math.IsNaN(CHR(4, nil)) {
		t.Fatal("nil host must be NaN")
	}
}

func TestRecommendedCHRBands(t *testing.T) {
	// The paper's best practice 5 values.
	if b := RecommendedCHR(CPUBound); b.Low != 0.07 || b.High != 0.14 {
		t.Fatalf("cpu band %v", b)
	}
	if b := RecommendedCHR(IOBound); b.Low != 0.14 || b.High != 0.28 {
		t.Fatalf("io band %v", b)
	}
	if b := RecommendedCHR(UltraIOBound); b.Low != 0.28 || b.High != 0.57 {
		t.Fatalf("ultra band %v", b)
	}
	b := RecommendedCHR(IOBound)
	if !b.Contains(0.2) || b.Contains(0.3) || b.Contains(0.1) {
		t.Fatal("Contains broken")
	}
	if b.String() == "" {
		t.Fatal("band string")
	}
}

func TestMinCoresForCHR(t *testing.T) {
	h := topology.PaperHost()
	if got := MinCoresForCHR(UltraIOBound, h); got != 32 {
		t.Fatalf("ultra-IO min cores on 112 = %d, want 32 (0.28×112 rounded up)", got)
	}
	small := topology.SmallHost16()
	if got := MinCoresForCHR(CPUBound, small); got < 1 {
		t.Fatalf("min cores %d", got)
	}
}

func TestAdviseBestPractices(t *testing.T) {
	h := topology.PaperHost()

	cpu := Advise(Profile{Name: "transcoder", CPUUtilization: 0.95}, h)
	if cpu.Platform != platform.CN || cpu.Mode != platform.Pinned {
		t.Fatalf("BP2 violated: %v %v", cpu.Mode, cpu.Platform)
	}

	mpi := Advise(Profile{Name: "solver", MessagesPerSecond: 10000}, h)
	if mpi.Platform != platform.VM {
		t.Fatalf("MPI must avoid containers (Fig 4), got %v", mpi.Platform)
	}

	io := Advise(Profile{Name: "web", IOPerSecond: 500, CPUUtilization: 0.3}, h)
	if io.Platform != platform.CN || io.Mode != platform.Pinned {
		t.Fatalf("BP4: %v %v", io.Mode, io.Platform)
	}

	ultra := Advise(Profile{Name: "db", IOPerSecond: 20000}, h)
	if ultra.CHRTarget != RecommendedCHR(UltraIOBound) {
		t.Fatal("BP5 band missing")
	}
	// BP1: no tiny vanilla containers.
	if cpu.MinCores < 3 {
		t.Fatalf("BP1: minimum %d cores", cpu.MinCores)
	}
	for _, r := range [](Recommendation){cpu, mpi, io, ultra} {
		if len(r.Rationale) == 0 {
			t.Fatal("recommendations must explain themselves")
		}
	}
	// nil host defaults to the paper host.
	if got := Advise(Profile{Name: "x", CPUUtilization: 1}, nil); got.MinCores == 0 {
		t.Fatal("nil host handling")
	}
}

func TestSplitPTOPSO(t *testing.T) {
	// A VM-like series: flat ratio 2 ⇒ pure PTO.
	pto, pso := Split([]float64{2.0, 2.0, 2.0})
	if pto != 2.0 {
		t.Fatalf("PTO %v", pto)
	}
	for _, p := range pso {
		if p != 0 {
			t.Fatalf("flat series has no PSO: %v", pso)
		}
	}
	// A vanilla-CN-like series: 2.1 shrinking to 1.05 ⇒ PSO-dominated.
	pto, pso = Split([]float64{2.1, 1.5, 1.2, 1.05})
	if pto != 1.05 {
		t.Fatalf("PTO %v", pto)
	}
	if math.Abs(pso[0]-1.05) > 1e-9 {
		t.Fatalf("PSO[0] = %v", pso[0])
	}
	if pto, pso := Split(nil); pto != 0 || pso != nil {
		t.Fatal("empty split")
	}
	// Negative PSO clamps to zero.
	_, pso = Split([]float64{1.0, 1.5})
	if pso[0] != 0 {
		t.Fatalf("PSO must clamp at zero: %v", pso)
	}
}
