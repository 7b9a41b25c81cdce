package workload

import (
	"fmt"

	"repro/internal/irqsim"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Web models the WordPress-under-JMeter workload (§III-B3): 1,000
// simultaneous web requests, each a short IO-bound process with at least
// three IRQs — read the request from the network socket, fetch the page /
// database rows (disk when not page-cached), and write the response back.
// Requests are served by a prefork-style worker pool (Apache's
// MaxRequestWorkers): each worker process handles its share of the 1,000
// connections sequentially. The paper's metric is the mean execution
// (response) time of the 1,000 requests from their simultaneous submission.
type Web struct {
	// Requests is the number of simultaneous requests (1,000 in the paper).
	Requests int
	// Workers is the server's worker-process pool size.
	Workers int
	// ParseCPU, RenderCPU, WriteCPU are the request's compute segments.
	ParseCPU  sim.Time
	RenderCPU sim.Time
	WriteCPU  sim.Time
	// SocketLatency is the NIC latency per socket IRQ.
	SocketLatency sim.Time
	// DiskMissProb is the probability a request's file/database fetch misses
	// the page cache and hits the (queued) disk.
	DiskMissProb float64
}

// DefaultWeb is the Fig 5 configuration.
func DefaultWeb() Web {
	return Web{
		Requests:      1000,
		Workers:       128,
		ParseCPU:      5 * sim.Millisecond,
		RenderCPU:     12 * sim.Millisecond,
		WriteCPU:      3 * sim.Millisecond,
		SocketLatency: 300 * sim.Microsecond,
		DiskMissProb:  0.15,
	}
}

// Name implements Workload.
func (w Web) Name() string { return "wordpress" }

type webWorker struct {
	m    *machine.Machine
	w    *Web
	inst *meanResponse
	// hitsDisk[i] precomputes the page-cache outcome of request i.
	hitsDisk []bool
	idx      int
	step     int
}

// Next implements sched.Program: serve each assigned request in sequence —
// socket read, parse, optional disk fetch, render, socket write.
func (ww *webWorker) Next(*sched.Task) sched.Action {
	if ww.idx >= len(ww.hitsDisk) {
		return sched.Done()
	}
	switch ww.step {
	case 0:
		ww.step = 1
		return sched.IO(irqsim.ChanNIC, ww.w.SocketLatency) // read request
	case 1:
		ww.step = 2
		return sched.Compute(ww.w.ParseCPU)
	case 2:
		ww.step = 3
		if ww.hitsDisk[ww.idx] {
			return sched.IO(irqsim.ChanDisk, 0) // page-cache miss
		}
		return ww.Next(nil)
	case 3:
		ww.step = 4
		return sched.Compute(ww.w.RenderCPU)
	case 4:
		ww.step = 5
		return sched.IO(irqsim.ChanNIC, ww.w.SocketLatency) // write response
	case 5:
		ww.step = 6
		return sched.Compute(ww.w.WriteCPU)
	case 6:
		// All requests were submitted at t=0 (JMeter's simultaneous burst),
		// so a request's response time is simply its completion time.
		ww.inst.record(ww.m.Eng.Now())
		ww.idx++
		ww.step = 0
		return ww.Next(nil)
	}
	panic(fmt.Sprintf("web worker: bad step %d", ww.step))
}

// Spawn implements Workload: Workers single-thread processes (Apache
// prefork style — each request is its own process from the scheduler's
// perspective, so thread-group counters are never contended, which is why
// VMCN does not pay the nested-accounting cost for web workloads; Fig 5).
func (w Web) Spawn(env Env) Instance {
	checkEnv(env, w.Name())
	n := w.Requests
	if n <= 0 {
		n = 1
	}
	workers := w.Workers
	if workers <= 0 {
		workers = 128
	}
	if workers > n {
		workers = n
	}
	inst := &meanResponse{}
	rng := env.M.RNG
	perWorker := make([][]bool, workers)
	for i := 0; i < n; i++ {
		wi := i % workers
		perWorker[wi] = append(perWorker[wi], rng.Float64() < w.DiskMissProb)
	}
	specs := env.M.SpecScratch(workers)[:workers]
	for i := 0; i < workers; i++ {
		specs[i] = sched.TaskSpec{
			Name:        fmt.Sprintf("httpd%d", i),
			Group:       env.Group,
			Affinity:    env.Affinity,
			WorkingSet:  0.3,
			MemBound:    0.3,
			VMTaxWeight: 0.6,
			Program:     &webWorker{m: env.M, w: &w, inst: inst, hitsDisk: perWorker[i]},
		}
	}
	env.M.SpawnBatch(specs, 0)
	return inst
}
