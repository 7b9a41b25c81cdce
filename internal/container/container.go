// Package container models the Docker container layer (paper §II-C): a
// container is "an abstraction created by the coupling of namespace and
// cgroups modules of the host OS". Namespaces are performance-transparent in
// this model; the cgroup coupling is exactly Docker's two CPU provisioning
// knobs:
//
//   - vanilla: --cpus=N        → CFS bandwidth quota, all CPUs allowed
//   - pinned:  --cpuset-cpus=… → static cpuset, no quota
//
// which are the two modes the paper compares.
package container

import (
	"fmt"

	"repro/internal/cgroups"
	"repro/internal/machine"
	"repro/internal/topology"
)

// Spec describes one container instance.
type Spec struct {
	Name  string
	Cores int
	// Pinned selects --cpuset-cpus (static set) rather than --cpus (quota).
	Pinned bool
	// NearCPU biases the pinned set toward a CPU (the IO IRQ home); -1 lets
	// the plan start at socket 0.
	NearCPU int
}

// Container is a deployed container: its cgroup plus bookkeeping.
type Container struct {
	Spec  Spec
	Group *cgroups.Group
	Host  *topology.Topology
}

// Create attaches a container's cgroup to a machine (the bare-metal host for
// CN, a guest for VMCN).
func Create(m *machine.Machine, spec Spec) (*Container, error) {
	if spec.Cores <= 0 {
		return nil, fmt.Errorf("container %q: cores must be positive", spec.Name)
	}
	if spec.Cores > m.Topo.NumCPUs() {
		return nil, fmt.Errorf("container %q: %d cores exceeds host's %d CPUs",
			spec.Name, spec.Cores, m.Topo.NumCPUs())
	}
	var g *cgroups.Group
	if spec.Pinned {
		set := m.Topo.PinPlan(spec.Cores, spec.NearCPU)
		g = m.NewGroup(spec.Name, 0, set)
	} else {
		g = m.NewGroup(spec.Name, float64(spec.Cores), topology.CPUSet{})
	}
	return &Container{Spec: spec, Group: g, Host: m.Topo}, nil
}

// CHR is the paper's Container-to-Host core Ratio (§IV-A): assigned cores
// over total host cores.
func (c *Container) CHR() float64 {
	return float64(c.Spec.Cores) / float64(c.Host.NumCPUs())
}

// Mode returns the provisioning mode string used in the figures.
func (c *Container) Mode() string {
	if c.Spec.Pinned {
		return "pinned"
	}
	return "vanilla"
}

func (c *Container) String() string {
	return fmt.Sprintf("container %s: %d cores, %s, CHR=%.2f",
		c.Spec.Name, c.Spec.Cores, c.Mode(), c.CHR())
}
