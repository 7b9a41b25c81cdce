// Package workload models the paper's four application types (Table I) as
// task programs for the simulated machines:
//
//	Transcode — FFmpeg codec change: CPU-bound, multi-threaded (≤16), small
//	            memory footprint, one process.
//	MPISearch — Open MPI parallel search: communication-dominated, one rank
//	            per core, ring exchange + tree allreduce per round.
//	Web       — WordPress under JMeter: 1,000 simultaneous short processes,
//	            each with ≥3 IRQs (socket read, disk, socket write).
//	NoSQL     — Cassandra under cassandra-stress: one process, 100 threads,
//	            1,000 operations (25% writes) in one second, extreme IO.
//
// Each workload's Spawn populates a deployment environment and returns an
// Instance that extracts the paper's metric for that figure after the run.
package workload

import (
	"fmt"

	"repro/internal/cgroups"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Env is where a workload's tasks live: the deployment's machine plus the
// container group / affinity restrictions of the platform.
type Env struct {
	M        *machine.Machine
	Group    *cgroups.Group
	Affinity topology.CPUSet
	// Cores is the instance size (Table II).
	Cores int
	// MemGB is the instance memory (Table II: 4 GB per core).
	MemGB int
}

// EnvFor builds an Env from deployment pieces, applying the paper's
// instance-type memory sizing when memGB is 0.
func EnvFor(m *machine.Machine, group *cgroups.Group, affinity topology.CPUSet, cores int) Env {
	return Env{M: m, Group: group, Affinity: affinity, Cores: cores, MemGB: 4 * cores}
}

// Instance is one spawned workload run; Metric is valid after machine.Run.
type Instance interface {
	// Metric returns the figure's metric in seconds (mean execution time or
	// mean response time, per the paper's per-figure definition).
	Metric(res machine.Result) float64
}

// Workload spawns tasks for one run.
type Workload interface {
	Name() string
	Spawn(env Env) Instance
}

// makespanMetric reports the job completion time (FFmpeg / MPI figures).
type makespanMetric struct{}

func (makespanMetric) Metric(res machine.Result) float64 { return res.Makespan.Seconds() }

// meanResponse reports the mean of the response times its programs record
// (WordPress, Cassandra and microservice figures). It keeps only their sum
// and count: sim.Time is an integer, so the sum does not depend on the
// order responses arrive in.
type meanResponse struct {
	sum sim.Time
	n   int
}

func (m *meanResponse) record(r sim.Time) {
	m.sum += r
	m.n++
}

// Metric implements Instance: the mean response time in seconds.
func (m *meanResponse) Metric(machine.Result) float64 {
	if m.n == 0 {
		return 0
	}
	return (m.sum / sim.Time(m.n)).Seconds()
}

func checkEnv(env Env, name string) {
	if env.M == nil {
		panic(fmt.Sprintf("workload %s: nil machine", name))
	}
	if env.Cores <= 0 {
		panic(fmt.Sprintf("workload %s: non-positive cores", name))
	}
}
