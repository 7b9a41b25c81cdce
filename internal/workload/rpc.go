package workload

import (
	"fmt"

	"repro/internal/irqsim"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Microservice models the network-overhead extension study (§VI future
// work: "we plan to extend the study to incorporate the impact of network
// overhead"): a two-tier RPC service with no disk involvement at all, so
// every platform difference comes from the network paths —
//
//   - the NIC IRQ path (IRQ-home affinity, §IV-C),
//   - the intra-host RPC transport: native futex/pipe on bare metal, the
//     veth/bridge namespace path in containers (per-CPU cost on the *host*
//     scale), the hypervisor's shared-memory path inside VMs,
//   - the virtio-net completion overlay for guests.
//
// Frontend workers each serve a share of the client connections: read a
// request from the NIC, parse, make one internal RPC to a backend (cache /
// auth sidecar — the classic microservice hop), assemble, and write the
// response back to the NIC.
type Microservice struct {
	// Requests is the number of simultaneous client requests.
	Requests int
	// Frontends and Backends size the two tiers.
	Frontends int
	Backends  int
	// ParseCPU and RespondCPU are the frontend compute segments.
	ParseCPU   sim.Time
	RespondCPU sim.Time
	// HandleCPU is the backend's per-RPC compute.
	HandleCPU sim.Time
	// SocketLatency is the NIC latency per external socket IRQ.
	SocketLatency sim.Time
	// RPCBytes is the internal request/reply payload size.
	RPCBytes int64
}

// DefaultMicroservice is the extension-figure configuration: 2,000
// requests against a 64-frontend / 16-backend service.
func DefaultMicroservice() Microservice {
	return Microservice{
		Requests:      2000,
		Frontends:     64,
		Backends:      16,
		ParseCPU:      2 * sim.Millisecond,
		RespondCPU:    2 * sim.Millisecond,
		HandleCPU:     4 * sim.Millisecond,
		SocketLatency: 300 * sim.Microsecond,
		RPCBytes:      8 << 10,
	}
}

// Name implements Workload.
func (w Microservice) Name() string { return "microservice" }

// msBackend serves `expect` RPCs: receive, handle, reply to the caller.
type msBackend struct {
	w      *Microservice
	expect int
	served int
	step   int
	caller *sched.Task
}

// Next implements sched.Program.
func (b *msBackend) Next(t *sched.Task) sched.Action {
	for {
		switch b.step {
		case 0: // wait for a request
			if b.served >= b.expect {
				return sched.Done()
			}
			msg, ok := t.TakeMessage()
			if !ok {
				return sched.Recv()
			}
			b.caller = msg.From
			b.step = 1
		case 1: // handle
			b.step = 2
			return sched.Compute(b.w.HandleCPU)
		case 2: // reply
			b.step = 0
			b.served++
			return sched.Send(b.caller, b.w.RPCBytes)
		}
	}
}

// msFrontend serves its share of connections sequentially.
type msFrontend struct {
	m       *machine.Machine
	w       *Microservice
	inst    *meanResponse
	backend *sched.Task
	left    int
	step    int
}

// Next implements sched.Program: NIC read → parse → RPC → respond → NIC
// write, per request.
func (f *msFrontend) Next(t *sched.Task) sched.Action {
	for {
		switch f.step {
		case 0:
			if f.left <= 0 {
				return sched.Done()
			}
			f.step = 1
			return sched.IO(irqsim.ChanNIC, f.w.SocketLatency) // read request
		case 1:
			f.step = 2
			return sched.Compute(f.w.ParseCPU)
		case 2:
			f.step = 3
			return sched.Send(f.backend, f.w.RPCBytes) // internal RPC
		case 3: // await the backend's reply
			if _, ok := t.TakeMessage(); !ok {
				return sched.Recv()
			}
			f.step = 4
		case 4:
			f.step = 5
			return sched.Compute(f.w.RespondCPU)
		case 5:
			f.step = 6
			return sched.IO(irqsim.ChanNIC, f.w.SocketLatency) // write response
		case 6:
			f.inst.record(f.m.Eng.Now())
			f.left--
			f.step = 0
		default:
			panic(fmt.Sprintf("microservice frontend: bad step %d", f.step))
		}
	}
}

// Spawn implements Workload: backends first (so frontends hold their task
// handles), then the frontend pool. Each tier is single-thread processes,
// like the web workload's prefork model.
func (w Microservice) Spawn(env Env) Instance {
	checkEnv(env, w.Name())
	n := w.Requests
	if n <= 0 {
		n = 1
	}
	fe := w.Frontends
	if fe <= 0 {
		fe = 64
	}
	if fe > n {
		fe = n
	}
	be := w.Backends
	if be <= 0 {
		be = 16
	}
	if be > fe {
		be = fe
	}
	inst := &meanResponse{}

	// Request shares per frontend, and per-backend expectations from the
	// static frontend→backend partition.
	share := make([]int, fe)
	for i := 0; i < n; i++ {
		share[i%fe]++
	}
	expect := make([]int, be)
	for i, s := range share {
		expect[i%be] += s
	}
	backends := make([]*sched.Task, be)
	for i := 0; i < be; i++ {
		backends[i] = env.M.Spawn(sched.TaskSpec{
			Name:        fmt.Sprintf("backend%d", i),
			Group:       env.Group,
			Affinity:    env.Affinity,
			WorkingSet:  0.4,
			MemBound:    0.3,
			VMTaxWeight: 0.6,
			Program:     &msBackend{w: &w, expect: expect[i]},
		}, 0)
	}
	for i := 0; i < fe; i++ {
		env.M.Spawn(sched.TaskSpec{
			Name:        fmt.Sprintf("frontend%d", i),
			Group:       env.Group,
			Affinity:    env.Affinity,
			WorkingSet:  0.3,
			MemBound:    0.3,
			VMTaxWeight: 0.6,
			Program:     &msFrontend{m: env.M, w: &w, inst: inst, backend: backends[i%be], left: share[i]},
		}, 0)
	}
	return inst
}
