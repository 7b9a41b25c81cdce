package workload

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestDriverRegistryCoversAllClasses(t *testing.T) {
	names := DriverNames()
	want := []string{"cassandra", "ffmpeg", "microservice", "mpi", "wordpress"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("DriverNames() = %v, want %v (sorted)", names, want)
	}
	for _, name := range names {
		d, err := NewDriver(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.DriverName() != name {
			t.Fatalf("driver %s reports class %s", name, d.DriverName())
		}
		// ScaleQuick must be shape-preserving: same class, same type.
		q := d.ScaleQuick()
		if q.DriverName() != name || reflect.TypeOf(q) != reflect.TypeOf(d) {
			t.Fatalf("driver %s quick-scales into %T", name, q)
		}
	}
}

func TestDriverAliases(t *testing.T) {
	for alias, canon := range map[string]string{
		"transcode": "ffmpeg",
		"openmpi":   "mpi",
		"web":       "wordpress",
		"WEB":       "wordpress",
		"nosql":     "cassandra",
		"rpc":       "microservice",
		"FFmpeg":    "ffmpeg",
	} {
		got, err := CanonicalDriver(alias)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if got != canon {
			t.Fatalf("CanonicalDriver(%s) = %s, want %s", alias, got, canon)
		}
	}
	_, err := CanonicalDriver("nope")
	if err == nil {
		t.Fatal("unknown driver must fail")
	}
	// The failure must carry the sorted driver listing for CLI errors.
	for _, name := range DriverNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q misses %s", err, name)
		}
	}
}

func TestUnmarshalDriverOverlaysDefaults(t *testing.T) {
	d, err := UnmarshalDriver("ffmpeg", []byte(`{"Segments": 30}`))
	if err != nil {
		t.Fatal(err)
	}
	w := d.(Transcode)
	def := DefaultTranscode()
	if w.Segments != 30 {
		t.Fatalf("override lost: %+v", w)
	}
	if w.TotalWork != def.TotalWork || w.Threads != def.Threads {
		t.Fatal("unspecified fields must keep defaults")
	}
	if _, err := UnmarshalDriver("ffmpeg", []byte(`{"Segmints": 30}`)); err == nil {
		t.Fatal("unknown parameter fields must be rejected")
	}
	if _, err := UnmarshalDriver("ffmpeg", nil); err != nil {
		t.Fatalf("nil params must yield defaults: %v", err)
	}
}

// TestScaleQuickMatchesFigureScaling pins each driver's Quick scaling to
// the historical per-figure divisors.
func TestScaleQuickMatchesFigureScaling(t *testing.T) {
	tr := DefaultTranscode().ScaleQuick().(Transcode)
	if tr.TotalWork != DefaultTranscode().TotalWork/8 ||
		tr.PerProcessOverhead != DefaultTranscode().PerProcessOverhead/8 {
		t.Fatalf("ffmpeg quick scaling diverged: %+v", tr)
	}
	mp := DefaultMPISearch().ScaleQuick().(MPISearch)
	if mp.Rounds != DefaultMPISearch().Rounds/8 ||
		mp.TotalCompute != DefaultMPISearch().TotalCompute/8 ||
		mp.ScatterBytes != DefaultMPISearch().ScatterBytes/8 {
		t.Fatalf("mpi quick scaling diverged: %+v", mp)
	}
	wb := DefaultWeb().ScaleQuick().(Web)
	if wb.Requests != DefaultWeb().Requests/4 {
		t.Fatalf("wordpress quick scaling diverged: %+v", wb)
	}
	if !reflect.DeepEqual(DefaultNoSQL().ScaleQuick(), Driver(DefaultNoSQL())) {
		t.Fatal("cassandra quick scaling must be a no-op (the overload regime is the figure)")
	}
	ms := DefaultMicroservice().ScaleQuick().(Microservice)
	if ms.Requests != DefaultMicroservice().Requests/4 {
		t.Fatalf("microservice quick scaling diverged: %+v", ms)
	}
}

// TestUnmarshalDriverRoundTrips: a driver's full parameter struct, as JSON,
// parses back to the same driver.
func TestUnmarshalDriverRoundTrips(t *testing.T) {
	for _, name := range DriverNames() {
		d, err := NewDriver(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := UnmarshalDriver(name, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("%s: round-trip diverged:\n%+v\n%+v", name, back, d)
		}
	}
}
