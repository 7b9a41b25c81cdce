// Package kvmconf generates and parses the libvirt domain-XML fragments that
// pin VMs (paper §II-D: "the virtualized platforms offer built-in pinning
// ability, e.g. via the Qemu configuration file for each VM"): the <vcpu>
// element and the <cputune> block of <vcpupin> entries an operator puts in a
// domain definition.
package kvmconf

import (
	"encoding/xml"
	"fmt"
	"strings"

	"repro/internal/topology"
)

// VCPUPin is one <vcpupin vcpu="N" cpuset="..."/> entry.
type VCPUPin struct {
	XMLName xml.Name `xml:"vcpupin"`
	VCPU    int      `xml:"vcpu,attr"`
	CPUSet  string   `xml:"cpuset,attr"`
}

// CPUTune is the <cputune> block.
type CPUTune struct {
	XMLName xml.Name  `xml:"cputune"`
	Pins    []VCPUPin `xml:"vcpupin"`
}

// VCPU is the <vcpu placement='static'>N</vcpu> element.
type VCPU struct {
	XMLName   xml.Name `xml:"vcpu"`
	Placement string   `xml:"placement,attr,omitempty"`
	Count     int      `xml:",chardata"`
}

// Domain is the subset of a libvirt domain definition the pinning workflow
// touches.
type Domain struct {
	XMLName xml.Name `xml:"domain"`
	Type    string   `xml:"type,attr"`
	Name    string   `xml:"name"`
	VCPU    VCPU     `xml:"vcpu"`
	CPUTune *CPUTune `xml:"cputune,omitempty"`
}

// Plan produces a 1:1 vcpupin plan: vCPU i onto the i-th CPU of the host
// pin set chosen by topology.PinPlan (compact, IRQ-adjacent, full-core
// first).
func Plan(name string, vcpus int, host *topology.Topology, nearCPU int) (*Domain, error) {
	if vcpus <= 0 {
		return nil, fmt.Errorf("kvmconf: domain %q needs at least one vCPU", name)
	}
	if host == nil {
		return nil, fmt.Errorf("kvmconf: nil host topology")
	}
	if vcpus > host.NumCPUs() {
		return nil, fmt.Errorf("kvmconf: %d vCPUs exceed the host's %d CPUs", vcpus, host.NumCPUs())
	}
	set := host.PinPlan(vcpus, nearCPU)
	cpus := set.Slice()
	d := &Domain{
		Type: "kvm",
		Name: name,
		VCPU: VCPU{Placement: "static", Count: vcpus},
		CPUTune: &CPUTune{
			Pins: make([]VCPUPin, vcpus),
		},
	}
	for i := 0; i < vcpus; i++ {
		d.CPUTune.Pins[i] = VCPUPin{VCPU: i, CPUSet: fmt.Sprintf("%d", cpus[i])}
	}
	return d, nil
}

// Marshal renders a domain as indented XML.
func Marshal(d *Domain) (string, error) {
	b, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("kvmconf: %w", err)
	}
	return string(b) + "\n", nil
}

// Parse reads a domain definition (full files are tolerated: unknown
// elements are ignored by encoding/xml).
func Parse(data string) (*Domain, error) {
	var d Domain
	if err := xml.Unmarshal([]byte(data), &d); err != nil {
		return nil, fmt.Errorf("kvmconf: parsing domain XML: %w", err)
	}
	return &d, nil
}

// PinnedSet returns the union of a domain's vcpupin cpusets.
func PinnedSet(d *Domain) (topology.CPUSet, error) {
	var s topology.CPUSet
	if d.CPUTune == nil {
		return s, nil
	}
	for _, p := range d.CPUTune.Pins {
		ps, err := topology.ParseList(p.CPUSet)
		if err != nil {
			return topology.CPUSet{}, fmt.Errorf("kvmconf: vcpu %d: %w", p.VCPU, err)
		}
		s = s.Union(ps)
	}
	return s, nil
}

// Validate checks a domain's pinning plan for the common operator mistakes:
// missing vcpupin entries, duplicate vCPUs, pins beyond the host.
func Validate(d *Domain, host *topology.Topology) error {
	if d.VCPU.Count <= 0 {
		return fmt.Errorf("kvmconf: domain %q has no vCPUs", d.Name)
	}
	if d.CPUTune == nil {
		return nil // unpinned domain is valid (vanilla mode)
	}
	seen := map[int]bool{}
	var problems []string
	for _, p := range d.CPUTune.Pins {
		if p.VCPU < 0 || p.VCPU >= d.VCPU.Count {
			problems = append(problems, fmt.Sprintf("vcpupin for nonexistent vcpu %d", p.VCPU))
		}
		if seen[p.VCPU] {
			problems = append(problems, fmt.Sprintf("duplicate vcpupin for vcpu %d", p.VCPU))
		}
		seen[p.VCPU] = true
		set, err := topology.ParseList(p.CPUSet)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if host != nil && !set.IsSubsetOf(host.AllCPUs()) {
			problems = append(problems, fmt.Sprintf("vcpu %d pinned outside host (%s)", p.VCPU, p.CPUSet))
		}
	}
	for v := 0; v < d.VCPU.Count; v++ {
		if !seen[v] {
			problems = append(problems, fmt.Sprintf("vcpu %d has no pin", v))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("kvmconf: domain %q: %s", d.Name, strings.Join(problems, "; "))
	}
	return nil
}
