package workload

// The driver registry. Each of the five workload classes is a parameter
// struct implementing Driver: a Workload that also knows its registry name
// and how to shrink itself for Quick runs. The registry makes workloads
// declarative — a scenario spec names a driver and overrides parameters as
// JSON, and everything downstream (spawning, Quick scaling, memo
// fingerprints) flows from the resolved parameter struct.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Driver is the declarative form of a workload class: a parameter struct
// that spawns runs, identifies its class, and scales itself for Quick mode.
// All drivers are plain value structs (no pointers, no maps), so %+v of a
// Driver is a stable fingerprint.
type Driver interface {
	Workload
	// DriverName is the canonical registry name of the workload class
	// ("ffmpeg", "mpi", "wordpress", "cassandra", "microservice") — distinct
	// from Name(), which labels one concrete parameterization.
	DriverName() string
	// ScaleQuick returns a copy shrunk for fast CI passes. Shapes are
	// preserved, absolute values are not; the scaling matches what each
	// paper figure applies in Quick mode.
	ScaleQuick() Driver
}

// DriverName implements Driver.
func (Transcode) DriverName() string { return "ffmpeg" }

// ScaleQuick implements Driver: the Fig 3/7/8 Quick scaling.
func (w Transcode) ScaleQuick() Driver {
	w.TotalWork /= 8
	w.PerProcessOverhead /= 8
	return w
}

// DriverName implements Driver.
func (MPISearch) DriverName() string { return "mpi" }

// ScaleQuick implements Driver: the Fig 4 Quick scaling.
func (w MPISearch) ScaleQuick() Driver {
	w.Rounds /= 8
	w.TotalCompute /= 8
	w.ScatterBytes /= 8
	return w
}

// DriverName implements Driver.
func (Web) DriverName() string { return "wordpress" }

// ScaleQuick implements Driver: the Fig 5 Quick scaling.
func (w Web) ScaleQuick() Driver {
	w.Requests /= 4
	return w
}

// DriverName implements Driver.
func (NoSQL) DriverName() string { return "cassandra" }

// ScaleQuick implements Driver: Fig 6 keeps the full operation count — the
// overload regime is the figure — so Quick mode is a no-op.
func (w NoSQL) ScaleQuick() Driver { return w }

// DriverName implements Driver.
func (Microservice) DriverName() string { return "microservice" }

// ScaleQuick implements Driver: the network-extension figure's Quick
// scaling.
func (w Microservice) ScaleQuick() Driver {
	w.Requests /= 4
	return w
}

// driverEntry ties a canonical name to its default constructor and aliases.
type driverEntry struct {
	name    string
	aliases []string
	def     func() Driver
}

// drivers is the closed registry, in Table I order plus the §VI extension.
var drivers = []driverEntry{
	{"ffmpeg", []string{"transcode"}, func() Driver { return DefaultTranscode() }},
	{"mpi", []string{"openmpi"}, func() Driver { return DefaultMPISearch() }},
	{"wordpress", []string{"web"}, func() Driver { return DefaultWeb() }},
	{"cassandra", []string{"nosql"}, func() Driver { return DefaultNoSQL() }},
	{"microservice", []string{"rpc"}, func() Driver { return DefaultMicroservice() }},
}

// DriverNames returns the canonical driver names, sorted.
func DriverNames() []string {
	out := make([]string, len(drivers))
	for i, d := range drivers {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// CanonicalDriver resolves a driver name or alias to its canonical name.
func CanonicalDriver(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, d := range drivers {
		if d.name == n {
			return d.name, nil
		}
		for _, a := range d.aliases {
			if a == n {
				return d.name, nil
			}
		}
	}
	return "", fmt.Errorf("workload: unknown driver %q (have %s)",
		name, strings.Join(DriverNames(), ", "))
}

// NewDriver builds the named driver with its default parameters.
func NewDriver(name string) (Driver, error) {
	canon, err := CanonicalDriver(name)
	if err != nil {
		return nil, err
	}
	for _, d := range drivers {
		if d.name == canon {
			return d.def(), nil
		}
	}
	panic("workload: registry inconsistent for " + canon)
}

// UnmarshalDriver builds the named driver with params (a JSON object of the
// driver's parameter struct) overlaid onto its defaults. Nil or empty
// params yield the defaults; unknown fields are rejected so a typo in a
// scenario file fails loudly instead of silently running the default.
func UnmarshalDriver(name string, params []byte) (Driver, error) {
	d, err := NewDriver(name)
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(params)) == 0 {
		return d, nil
	}
	// Unmarshal into the concrete struct through a pointer so the overlay
	// lands on the default values.
	overlay := func(dst any) error {
		dec := json.NewDecoder(bytes.NewReader(params))
		dec.DisallowUnknownFields()
		return dec.Decode(dst)
	}
	switch w := d.(type) {
	case Transcode:
		err = overlay(&w)
		d = w
	case MPISearch:
		err = overlay(&w)
		d = w
	case Web:
		err = overlay(&w)
		d = w
	case NoSQL:
		err = overlay(&w)
		d = w
	case Microservice:
		err = overlay(&w)
		d = w
	default:
		err = fmt.Errorf("workload: driver %q has no parameter struct", name)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: driver %q params: %w", name, err)
	}
	return d, nil
}
