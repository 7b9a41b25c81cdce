package workload

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
)

// MPISearch models the paper's MPI Search application (§III-B2): one rank
// per instance core, iterating rounds of local compute, a halo exchange with
// the right neighbor (payload shrinks as ranks grow, like a partitioned
// search space), and a binary-tree allreduce ("found?" consensus). The
// communication part dominates the computation part, as the paper arranges.
//
// Platform differentiation comes from the messaging path: bare-metal and
// intra-guest ranks use the shared-memory transport; containerized ranks pay
// the network-namespace (Docker bridge) path, which is why containers are
// the worst platform for MPI regardless of pinning (Fig 4), while the
// hypervisor's intra-VM path keeps VMs near bare metal once communication
// dominates.
type MPISearch struct {
	// Ranks is the number of MPI processes; the paper runs one per core, so
	// Spawn uses env.Cores when Ranks is 0.
	Ranks int
	// Rounds is the number of search iterations.
	Rounds int
	// TotalCompute is the nominal single-core compute across all rounds.
	TotalCompute sim.Time
	// DataPerRound is the total halo-exchange volume per round, split over
	// ranks.
	DataPerRound int64
	// ScatterBytes is the one-time initial scatter volume.
	ScatterBytes int64
	// AllreduceEvery runs the tree consensus every k-th round (Open MPI
	// programs typically batch their termination checks).
	AllreduceEvery int
}

// DefaultMPISearch is the Fig 4 configuration.
func DefaultMPISearch() MPISearch {
	return MPISearch{
		Rounds:         1000,
		TotalCompute:   sim.FromSeconds(12),
		DataPerRound:   8 << 20,
		ScatterBytes:   64 << 20,
		AllreduceEvery: 4,
	}
}

// Name implements Workload.
func (w MPISearch) Name() string { return "mpi-search" }

// phases of one round, per rank.
const (
	mpiScatter = iota
	mpiCompute
	mpiNeighbor
	mpiReduce
	mpiBcastRecv
	mpiBcast
	mpiDone
)

// mpiStep is one ordered communication step: either emit a send or consume
// n messages. Order matters — a rank must post its halo send before blocking
// on its neighbor's, or the ring deadlocks.
type mpiStep struct {
	send sched.Action
	recv int
}

type mpiRank struct {
	w     *MPISearch
	rank  int
	ranks int
	peers []*sched.Task
	round int
	phase int
	// queue holds the pending steps in queue[qHead:]; popping advances
	// qHead, so the rank reuses one backing array for its whole run.
	queue      []mpiStep
	qHead      int
	perRound   sim.Time
	blockBytes int64
}

// kids returns the rank's children in the binary reduction tree: k[:n].
func (r *mpiRank) kids() (k [2]int, n int) {
	if c := 2*r.rank + 1; c < r.ranks {
		k[n] = c
		n++
	}
	if c := 2*r.rank + 2; c < r.ranks {
		k[n] = c
		n++
	}
	return k, n
}

// push appends a step. Before append would grow a backing array whose
// front holds popped steps, the live tail moves to the front.
func (r *mpiRank) push(s mpiStep) {
	if len(r.queue) == cap(r.queue) && r.qHead > 0 {
		n := copy(r.queue, r.queue[r.qHead:])
		r.queue = r.queue[:n]
		r.qHead = 0
	}
	r.queue = append(r.queue, s)
}

func (r *mpiRank) pushSend(to int, bytes int64) {
	r.push(mpiStep{send: sched.Send(r.peers[to], bytes)})
}

func (r *mpiRank) pushRecv(n int) {
	if n > 0 {
		r.push(mpiStep{recv: n})
	}
}

// Next implements sched.Program as a per-rank state machine.
func (r *mpiRank) Next(t *sched.Task) sched.Action {
	for r.qHead < len(r.queue) {
		head := &r.queue[r.qHead]
		if head.recv > 0 {
			if _, ok := t.TakeMessage(); ok {
				head.recv--
				continue
			}
			return sched.Recv()
		}
		a := head.send
		r.qHead++
		if r.qHead == len(r.queue) {
			r.queue = r.queue[:0]
			r.qHead = 0
		}
		if a.Kind == sched.ActSend {
			return a
		}
	}
	switch r.phase {
	case mpiScatter:
		r.phase = mpiCompute
		if r.rank == 0 {
			per := r.w.ScatterBytes / int64(r.ranks)
			for i := 1; i < r.ranks; i++ {
				r.pushSend(i, per)
			}
		} else {
			r.pushRecv(1)
		}
		return r.Next(t)
	case mpiCompute:
		r.phase = mpiNeighbor
		return sched.Compute(r.perRound)
	case mpiNeighbor:
		// Post the halo send to the right neighbor, then consume the
		// left's.
		if r.ranks > 1 {
			r.pushSend((r.rank+1)%r.ranks, r.blockBytes)
			r.pushRecv(1)
		}
		every := r.w.AllreduceEvery
		if every <= 0 {
			every = 1
		}
		if (r.round+1)%every == 0 || r.round+1 >= r.w.Rounds {
			r.phase = mpiReduce
		} else {
			r.phase = mpiBcast // skip the tree this round
		}
		return r.Next(t)
	case mpiReduce:
		r.phase = mpiBcastRecv
		_, nk := r.kids()
		r.pushRecv(nk) // children's partial results first
		if r.rank != 0 {
			r.pushSend((r.rank-1)/2, 64)
		}
		return r.Next(t)
	case mpiBcastRecv:
		if r.rank != 0 {
			// Consume the parent's broadcast before forwarding.
			r.pushRecv(1)
		}
		kids, nk := r.kids()
		for _, k := range kids[:nk] {
			r.pushSend(k, 64)
		}
		r.phase = mpiBcast
		return r.Next(t)
	case mpiBcast:
		r.round++
		if r.round >= r.w.Rounds {
			r.phase = mpiDone
		} else {
			r.phase = mpiCompute
		}
		return r.Next(t)
	case mpiDone:
		return sched.Done()
	}
	panic(fmt.Sprintf("mpi rank %d: bad phase %d", r.rank, r.phase))
}

// Spawn implements Workload.
func (w MPISearch) Spawn(env Env) Instance {
	checkEnv(env, w.Name())
	ranks := w.Ranks
	if ranks <= 0 {
		ranks = env.Cores
	}
	rounds := w.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	peers := make([]*sched.Task, ranks)
	for i := 0; i < ranks; i++ {
		prog := &mpiRank{
			w:          &w,
			rank:       i,
			ranks:      ranks,
			peers:      peers,
			perRound:   w.TotalCompute / sim.Time(int64(ranks)*int64(rounds)),
			blockBytes: w.DataPerRound / int64(ranks),
		}
		peers[i] = env.M.Spawn(sched.TaskSpec{
			Name:        fmt.Sprintf("mpi-rank%d", i),
			Group:       env.Group,
			Affinity:    env.Affinity,
			WorkingSet:  0.5,
			MemBound:    0.2,  // integer search is mostly cache-resident
			VMTaxWeight: 0.35, // light EPT pressure
			Program:     prog,
		}, 0)
	}
	return makespanMetric{}
}
