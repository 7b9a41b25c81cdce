package topology

import "fmt"

// Distance classifies how far apart two logical CPUs are in the cache/memory
// hierarchy. It determines migration and communication costs.
type Distance int

const (
	// SameCPU: the same logical CPU; no movement.
	SameCPU Distance = iota
	// SMTSibling: a hardware thread on the same physical core (shared L1/L2).
	SMTSibling
	// SameSocket: a different core on the same socket (shared LLC).
	SameSocket
	// CrossSocket: a core on another socket (LLC miss + remote memory).
	CrossSocket
)

func (d Distance) String() string {
	switch d {
	case SameCPU:
		return "same-cpu"
	case SMTSibling:
		return "smt-sibling"
	case SameSocket:
		return "same-socket"
	case CrossSocket:
		return "cross-socket"
	}
	return fmt.Sprintf("Distance(%d)", int(d))
}

// Topology describes a host: sockets × cores-per-socket × threads-per-core
// homogeneous logical CPUs. Logical CPU ids are laid out socket-major,
// core-second, thread-last, matching the common Linux enumeration for this
// class of machine:
//
//	cpu = socket*CoresPerSocket*ThreadsPerCore + core*ThreadsPerCore + thread
type Topology struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int

	// LLCMB is the per-socket last-level cache size in MiB; informational,
	// used by the cache model to scale working-set penalties.
	LLCMB float64
	// ClockGHz is the nominal core clock; informational.
	ClockGHz float64

	// idx is the precomputed lookup index (see index.go), built by New.
	idx *Index
}

// New returns a validated topology.
func New(name string, sockets, coresPerSocket, threadsPerCore int) (*Topology, error) {
	t := &Topology{
		Name:           name,
		Sockets:        sockets,
		CoresPerSocket: coresPerSocket,
		ThreadsPerCore: threadsPerCore,
		LLCMB:          35,
		ClockGHz:       1.8,
	}
	if err := t.validateDims(); err != nil {
		return nil, err
	}
	// The process-wide shape cache makes repeat constructions of one shape
	// (guest topologies, per-request hosts) a map lookup, not an O(cpus²)
	// table build.
	t.idx = internIndex(t)
	return t, nil
}

// Validate checks structural sanity and that t was built by New: every
// lookup reads the index New builds.
func (t *Topology) Validate() error {
	if err := t.validateDims(); err != nil {
		return err
	}
	if t.idx == nil {
		return fmt.Errorf("topology %q: not built by topology.New (no index)", t.Name)
	}
	return nil
}

// validateDims checks that every dimension is positive and the CPU count
// fits a CPUSet.
func (t *Topology) validateDims() error {
	if t.Sockets <= 0 || t.CoresPerSocket <= 0 || t.ThreadsPerCore <= 0 {
		return fmt.Errorf("topology %q: all dimensions must be positive (got %d×%d×%d)",
			t.Name, t.Sockets, t.CoresPerSocket, t.ThreadsPerCore)
	}
	if t.NumCPUs() > MaxCPUs {
		return fmt.Errorf("topology %q: %d cpus exceeds limit %d", t.Name, t.NumCPUs(), MaxCPUs)
	}
	return nil
}

// NumCPUs returns the number of logical CPUs.
func (t *Topology) NumCPUs() int { return t.Sockets * t.CoresPerSocket * t.ThreadsPerCore }

// NumPhysicalCores returns the number of physical cores.
func (t *Topology) NumPhysicalCores() int { return t.Sockets * t.CoresPerSocket }

// AllCPUs returns the set of every logical CPU.
func (t *Topology) AllCPUs() CPUSet { return Range(0, t.NumCPUs()-1) }

// Socket returns the socket index of a logical CPU.
func (t *Topology) Socket(cpu int) int { return int(t.idx.socketOf[cpu]) }

// PhysicalCore returns the global physical-core index of a logical CPU.
func (t *Topology) PhysicalCore(cpu int) int { return cpu / t.ThreadsPerCore }

// Thread returns the SMT thread index (0-based) of a logical CPU.
func (t *Topology) Thread(cpu int) int { return cpu % t.ThreadsPerCore }

// SiblingsOf returns the logical CPUs sharing cpu's physical core (including
// cpu itself).
func (t *Topology) SiblingsOf(cpu int) CPUSet {
	core := t.PhysicalCore(cpu)
	lo := core * t.ThreadsPerCore
	return Range(lo, lo+t.ThreadsPerCore-1)
}

// SocketCPUs returns the logical CPUs of one socket.
func (t *Topology) SocketCPUs(socket int) CPUSet {
	per := t.CoresPerSocket * t.ThreadsPerCore
	lo := socket * per
	return Range(lo, lo+per-1)
}

// DistanceBetween classifies the distance between two logical CPUs.
func (t *Topology) DistanceBetween(a, b int) Distance { return t.idx.Distance(a, b) }

// SocketsSpanned returns how many distinct sockets the set touches.
func (t *Topology) SocketsSpanned(s CPUSet) int {
	seen := map[int]bool{}
	s.ForEach(func(c int) bool {
		seen[t.Socket(c)] = true
		return true
	})
	return len(seen)
}

// PinPlan selects n logical CPUs for pinning, using as few sockets as
// possible starting from the socket that contains `near` (e.g. the IO IRQ
// home core), and spreading over distinct physical cores before reusing SMT
// siblings. This mirrors how an operator pins "based on IO affinity"
// (paper §III-B3): compact, IRQ-adjacent, full-core-first sets.
func (t *Topology) PinPlan(n int, near int) CPUSet {
	var s CPUSet
	if n <= 0 {
		return s
	}
	if n > t.NumCPUs() {
		n = t.NumCPUs()
	}
	startSocket := 0
	if near >= 0 && near < t.NumCPUs() {
		startSocket = t.Socket(near)
	}
	// Distinct physical cores first (spilling to the next socket before
	// SMT siblings: sharing a core costs more than splitting the LLC),
	// starting from the IRQ-adjacent socket.
	taken := 0
	for thread := 0; thread < t.ThreadsPerCore && taken < n; thread++ {
		for i := 0; i < t.Sockets && taken < n; i++ {
			socket := (startSocket + i) % t.Sockets
			base := socket * t.CoresPerSocket * t.ThreadsPerCore
			for core := 0; core < t.CoresPerSocket && taken < n; core++ {
				s.Add(base + core*t.ThreadsPerCore + thread)
				taken++
			}
		}
	}
	return s
}

// InterleavedCPUs enumerates n logical CPUs round-robin across sockets,
// distinct physical cores before SMT siblings. This models GRUB-style
// maxcpus= core limiting on firmware that enumerates CPUs socket-interleaved
// (the common BIOS default on multi-socket Xeon boards like the paper's
// R830) — the bare-metal instance analog.
func (t *Topology) InterleavedCPUs(n int) CPUSet {
	var s CPUSet
	if n <= 0 {
		return s
	}
	if n > t.NumCPUs() {
		n = t.NumCPUs()
	}
	taken := 0
	for thread := 0; thread < t.ThreadsPerCore && taken < n; thread++ {
		for core := 0; core < t.CoresPerSocket && taken < n; core++ {
			for socket := 0; socket < t.Sockets && taken < n; socket++ {
				base := socket * t.CoresPerSocket * t.ThreadsPerCore
				s.Add(base + core*t.ThreadsPerCore + thread)
				taken++
			}
		}
	}
	return s
}

// Fingerprint is a stable, value-only serialization of the topology for
// memoization keys: everything a simulation result can depend on, and
// nothing else (in particular not the index pointer, which differs per
// instance).
func (t *Topology) Fingerprint() string {
	return fmt.Sprintf("%s/%dx%dx%d/llc%g/clk%g",
		t.Name, t.Sockets, t.CoresPerSocket, t.ThreadsPerCore, t.LLCMB, t.ClockGHz)
}

// String describes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s: %d socket(s) × %d core(s) × %d thread(s) = %d cpus",
		t.Name, t.Sockets, t.CoresPerSocket, t.ThreadsPerCore, t.NumCPUs())
}

// PaperHost is the evaluation host from the paper: a DELL PowerEdge R830 with
// 4 × Intel Xeon E5-4628Lv4 (14 cores / 28 threads each), 112 logical CPUs,
// 35 MB LLC per socket, 1.8 GHz.
func PaperHost() *Topology {
	t, err := New("r830", 4, 14, 2)
	if err != nil {
		panic(err)
	}
	t.LLCMB = 35
	t.ClockGHz = 1.8
	return t
}

// BigHost1024 is a 1024-CPU dual-socket host (2 sockets × 256 cores × 2
// threads) at the CPUSet capacity limit: the big-topology stress shape the
// scheduler fast paths are benchmarked against (BenchmarkBigTopology).
func BigHost1024() *Topology {
	t, err := New("big1024", 2, 256, 2)
	if err != nil {
		panic(err)
	}
	t.LLCMB = 384
	t.ClockGHz = 2.4
	return t
}

// SmallHost16 is the 16-core single-socket host used in the paper's CHR
// experiment (Fig 7).
func SmallHost16() *Topology {
	t, err := New("small16", 1, 16, 1)
	if err != nil {
		panic(err)
	}
	t.LLCMB = 35
	t.ClockGHz = 1.8
	return t
}
