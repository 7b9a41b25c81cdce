package workload

import (
	"fmt"

	"repro/internal/irqsim"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// NoSQL models the Cassandra-under-cassandra-stress workload (§III-B4): one
// big multi-threaded process (100 client-serving threads) receiving 1,000
// synthesized operations within one second, 25% writes / 75% reads, under
// extreme IO pressure on an LSM storage engine:
//
//   - writes append to the commit log (queued disk) and amortize a
//     flush/compaction IO;
//   - reads miss the page cache with a probability that falls as instance
//     memory grows (Table II gives 4 GB per core, so bigger instances cache
//     more of the dataset — the main reason Fig 6 improves with size);
//     a miss touches multiple SSTable levels.
//
// The metric is the mean response time of the 1,000 operations measured from
// their submission times. Instances whose memory is below ThrashMemGB swap
// (the paper's Large "out of range" case); the experiment layer flags them.
type NoSQL struct {
	Threads   int
	Ops       int
	WriteFrac float64
	// Window is the submission window (1 s in the paper).
	Window sim.Time
	// OpCPU is the base compute per operation (split around the IO).
	OpCPU sim.Time
	// SocketLatency is the client NIC latency per op.
	SocketLatency sim.Time
	// DatasetGB and the instance's MemGB set the read miss probability:
	// max(MinMiss, 1 - CacheEff×mem/dataset).
	DatasetGB float64
	CacheEff  float64
	MinMiss   float64
	// ReadMissIOs is how many SSTable-level disk reads one miss costs.
	ReadMissIOs int
	// CompactProb is the probability a write pays an extra compaction IO.
	CompactProb float64
	// ThrashMemGB marks instances that swap; their IO and CPU inflate.
	ThrashMemGB    int
	ThrashIOScale  int
	ThrashCPUScale float64
}

// DefaultNoSQL is the Fig 6 configuration.
func DefaultNoSQL() NoSQL {
	return NoSQL{
		Threads:        100,
		Ops:            1000,
		WriteFrac:      0.25,
		Window:         sim.Second,
		OpCPU:          60 * sim.Millisecond,
		SocketLatency:  200 * sim.Microsecond,
		DatasetGB:      20,
		CacheEff:       0.8,
		MinMiss:        0.02,
		ReadMissIOs:    3,
		CompactProb:    0.8,
		ThrashMemGB:    12,
		ThrashIOScale:  4,
		ThrashCPUScale: 3,
	}
}

// Name implements Workload.
func (w NoSQL) Name() string { return "cassandra" }

// MissProb returns the read page-cache miss probability for an instance
// memory size.
func (w NoSQL) MissProb(memGB int) float64 {
	p := 1 - w.CacheEff*float64(memGB)/w.DatasetGB
	if p < w.MinMiss {
		p = w.MinMiss
	}
	return p
}

// Thrashing reports whether an instance memory size falls into the paper's
// overloaded/thrashed regime (the Large instance in Fig 6).
func (w NoSQL) Thrashing(memGB int) bool { return memGB < w.ThrashMemGB }

type nosqlOp struct {
	arrival sim.Time
	write   bool
	diskIOs int
	cpu     sim.Time
}

type nosqlThread struct {
	m       *machine.Machine
	w       *NoSQL
	inst    *meanResponse
	ops     []nosqlOp
	idx     int
	step    int
	iosLeft int
}

// Next implements sched.Program: per op — wait for its submission time, take
// the request off the socket, compute, do the op's disk IOs, compute, answer
// on the socket.
func (th *nosqlThread) Next(t *sched.Task) sched.Action {
	if th.idx >= len(th.ops) {
		return sched.Done()
	}
	op := th.ops[th.idx]
	switch th.step {
	case 0:
		th.step = 1
		if wait := op.arrival - th.m.Eng.Now(); wait > 0 {
			return sched.Sleep(wait)
		}
		return th.Next(t)
	case 1:
		th.step = 2
		return sched.IO(irqsim.ChanNIC, th.w.SocketLatency)
	case 2:
		th.step = 3
		th.iosLeft = op.diskIOs
		return sched.Compute(op.cpu / 2)
	case 3:
		if th.iosLeft > 0 {
			th.iosLeft--
			return sched.IO(irqsim.ChanDisk, 0)
		}
		th.step = 4
		return sched.Compute(op.cpu / 2)
	case 4:
		th.step = 5
		return sched.IO(irqsim.ChanNIC, th.w.SocketLatency)
	case 5:
		th.inst.record(th.m.Eng.Now() - op.arrival)
		th.idx++
		th.step = 0
		return th.Next(t)
	}
	panic(fmt.Sprintf("nosql thread: bad step %d", th.step))
}

// Spawn implements Workload.
func (w NoSQL) Spawn(env Env) Instance {
	checkEnv(env, w.Name())
	threads := w.Threads
	if threads <= 0 {
		threads = 1
	}
	ops := w.Ops
	if ops <= 0 {
		ops = 1
	}
	miss := w.MissProb(env.MemGB)
	thrash := w.Thrashing(env.MemGB)
	inst := &meanResponse{}
	rng := env.M.RNG

	// Build the global op sequence (uniform arrivals over the window),
	// dealt round-robin to threads like a client connection pool.
	perThread := make([][]nosqlOp, threads)
	// Each thread gets at most ops/threads+1 ops: carve its list from one
	// presized backing so dealing never grows a slice.
	per := ops/threads + 1
	back := make([]nosqlOp, threads*per)
	for i := range perThread {
		perThread[i] = back[i*per : i*per : (i+1)*per]
	}
	for i := 0; i < ops; i++ {
		op := nosqlOp{
			arrival: sim.Time(int64(w.Window) * int64(i) / int64(ops)),
			write:   rng.Float64() < w.WriteFrac,
			cpu:     w.OpCPU,
		}
		if op.write {
			op.diskIOs = 1 // commit log
			if rng.Float64() < w.CompactProb {
				op.diskIOs++ // amortized flush/compaction
			}
		} else if rng.Float64() < miss {
			op.diskIOs = w.ReadMissIOs
		}
		if thrash {
			op.diskIOs *= w.ThrashIOScale
			op.cpu = sim.Time(float64(op.cpu) * w.ThrashCPUScale)
		}
		perThread[i%threads] = append(perThread[i%threads], op)
	}
	specs := env.M.SpecScratch(threads)
	for i := 0; i < threads; i++ {
		if len(perThread[i]) == 0 {
			continue
		}
		specs = append(specs, sched.TaskSpec{
			Name:        fmt.Sprintf("cass-th%d", i),
			Group:       env.Group,
			Proc:        1, // all threads belong to the one Cassandra process
			Affinity:    env.Affinity,
			WorkingSet:  3.0, // big JVM heap: migrations hurt badly
			MemBound:    0.6,
			VMTaxWeight: 0.15, // IO-wait-heavy JVM: light EPT pressure
			Program:     &nosqlThread{m: env.M, w: &w, inst: inst, ops: perThread[i]},
		})
	}
	env.M.SpawnBatch(specs, 0)
	return inst
}
