// Package core is the paper's actionable contribution as a library: it
// classifies applications the way §III does (CPU-bound, parallel/HPC,
// IO-bound, ultra-IO-bound), decomposes measured overheads into
// Platform-Type Overhead and Platform-Size Overhead (§IV), computes the
// Container-to-Host core Ratio and its recommended bands (§IV-A), and turns
// the six findings and five best practices of §VI into an Advisor that
// recommends an execution platform, provisioning mode and sizing for a given
// application profile and host.
package core

import (
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/topology"
)

// AppClass is the paper's application taxonomy (Table I).
type AppClass int

const (
	// CPUBound: video transcoding and similar compute-saturated work.
	CPUBound AppClass = iota
	// Parallel: MPI-style communication-dominated HPC programs.
	Parallel
	// IOBound: web workloads with many short IO-interrupted processes.
	IOBound
	// UltraIOBound: NoSQL / storage workloads with extreme IO volume.
	UltraIOBound
)

func (c AppClass) String() string {
	switch c {
	case CPUBound:
		return "cpu-bound"
	case Parallel:
		return "parallel (MPI)"
	case IOBound:
		return "io-bound"
	case UltraIOBound:
		return "ultra-io-bound"
	}
	return fmt.Sprintf("AppClass(%d)", int(c))
}

// Profile describes an application for the advisor.
type Profile struct {
	Name string
	// IOPerSecond is the rate of IO interrupts per second of runtime.
	IOPerSecond float64
	// CPUUtilization is the fraction of wall time spent computing (1.0 =
	// fully CPU-bound).
	CPUUtilization float64
	// MessagesPerSecond is the inter-process messaging rate (MPI-style).
	MessagesPerSecond float64
	// Threads is the peak runnable thread count.
	Threads int
	// Multiprocess marks workloads made of many short-lived processes.
	Multiprocess bool
}

// Classify maps a profile onto the paper's taxonomy.
func Classify(p Profile) AppClass {
	switch {
	case p.MessagesPerSecond > 100 && p.MessagesPerSecond >= p.IOPerSecond:
		return Parallel
	case p.IOPerSecond >= 2000:
		return UltraIOBound
	case p.IOPerSecond >= 100 || p.CPUUtilization < 0.5:
		return IOBound
	default:
		return CPUBound
	}
}

// CHR is the paper's Container-to-Host core Ratio (§IV-A).
func CHR(containerCores int, host *topology.Topology) float64 {
	if host == nil || host.NumCPUs() == 0 {
		return math.NaN()
	}
	return float64(containerCores) / float64(host.NumCPUs())
}

// CHRBand is a recommended CHR range for an application class.
type CHRBand struct {
	Low, High float64
}

// Contains reports whether a CHR value falls inside the band.
func (b CHRBand) Contains(chr float64) bool { return chr > b.Low && chr <= b.High }

func (b CHRBand) String() string { return fmt.Sprintf("%.2f < CHR < %.2f", b.Low, b.High) }

// RecommendedCHR returns the paper's best-practice #5 bands: CPU-intensive
// 0.07–0.14, IO-intensive 0.14–0.28, ultra-IO-intensive 0.28–0.57.
func RecommendedCHR(class AppClass) CHRBand {
	switch class {
	case CPUBound, Parallel:
		return CHRBand{0.07, 0.14}
	case IOBound:
		return CHRBand{0.14, 0.28}
	case UltraIOBound:
		return CHRBand{0.28, 0.57}
	}
	return CHRBand{0.07, 0.14}
}

// MinCoresForCHR returns the smallest container size whose CHR reaches the
// class band on the host.
func MinCoresForCHR(class AppClass, host *topology.Topology) int {
	band := RecommendedCHR(class)
	n := int(math.Ceil(band.Low * float64(host.NumCPUs())))
	if n < 1 {
		n = 1
	}
	return n
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Class     AppClass
	Platform  platform.Kind
	Mode      platform.Mode
	MinCores  int
	CHRTarget CHRBand
	Rationale []string
}

// Advise applies the paper's best practices (§VI) to a profile on a host.
func Advise(p Profile, host *topology.Topology) Recommendation {
	if host == nil {
		host = topology.PaperHost()
	}
	class := Classify(p)
	r := Recommendation{
		Class:     class,
		CHRTarget: RecommendedCHR(class),
		MinCores:  MinCoresForCHR(class, host),
	}
	switch class {
	case CPUBound:
		// BP2: pinned containers impose the least overhead for CPU work.
		r.Platform = platform.CN
		r.Mode = platform.Pinned
		r.Rationale = append(r.Rationale,
			"CPU-intensive: pinned containers impose the least overhead (best practice 2)",
			"if a VM must be used, do not bother pinning it — the virtualization tax is size-invariant PTO (best practice 3)")
	case Parallel:
		// Fig 4: containers are the worst platform for MPI; VMs approach
		// bare metal once communication dominates. The VM wins because its
		// messages skip the container network namespace, not because its
		// own message path is fast (finding vm-fastpath-gives-mpi-lead).
		r.Platform = platform.VM
		r.Mode = platform.Pinned
		r.Rationale = append(r.Rationale,
			"communication-dominated: intra-VM messages skip the container network-namespace path, the per-message cost that makes containers the slowest MPI platform (Fig 4)",
			"avoid containers for MPI — pinning does not remove their per-message kernel-path cost")
	case IOBound:
		// BP4: pinned CN first; VMCN if pinning is not viable.
		r.Platform = platform.CN
		r.Mode = platform.Pinned
		r.Rationale = append(r.Rationale,
			"IO-intensive: pinned containers near the IRQ home CPUs impose the lowest overhead (Fig 5)",
			"if pinning is not viable, use a container inside a VM (VMCN) rather than a VM or a vanilla container (best practice 4)")
	case UltraIOBound:
		r.Platform = platform.CN
		r.Mode = platform.Pinned
		r.Rationale = append(r.Rationale,
			"ultra-IO-intensive: pinned platforms can beat even bare metal via IO affinity (Fig 6)",
			fmt.Sprintf("size generously: suitable CHR is %v (best practice 5)", RecommendedCHR(UltraIOBound)))
	}
	// BP1: never ship tiny vanilla containers.
	if r.MinCores <= 2 {
		r.MinCores = 3
	}
	r.Rationale = append(r.Rationale,
		fmt.Sprintf("avoid vanilla containers smaller than %d cores on this %d-CPU host (best practice 1; CHR band %v)",
			r.MinCores, host.NumCPUs(), r.CHRTarget))
	return r
}

// Split decomposes a series of overhead ratios (ordered small → large
// instance) into the size-invariant PTO (the large-instance plateau) and the
// per-size PSO remainder, following §IV's definition.
func Split(ratios []float64) (pto float64, pso []float64) {
	if len(ratios) == 0 {
		return 0, nil
	}
	pto = ratios[len(ratios)-1]
	pso = make([]float64, len(ratios))
	for i, r := range ratios {
		d := r - pto
		if d < 0 {
			d = 0
		}
		pso[i] = d
	}
	return pto, pso
}
