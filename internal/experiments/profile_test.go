package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
)

func TestParsePlatformAndMode(t *testing.T) {
	for s, want := range map[string]platform.Kind{
		"bm": platform.BM, "VM": platform.VM, "cn": platform.CN, "VMCN": platform.VMCN,
	} {
		got, err := ParsePlatform(s)
		if err != nil || got != want {
			t.Fatalf("ParsePlatform(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePlatform("xen"); err == nil {
		t.Fatal("unknown platform")
	}
	if m, err := ParseMode(""); err != nil || m != platform.Vanilla {
		t.Fatal("empty mode defaults to vanilla")
	}
	if m, err := ParseMode("Pinned"); err != nil || m != platform.Pinned {
		t.Fatal("pinned mode")
	}
	if _, err := ParseMode("floating"); err == nil {
		t.Fatal("unknown mode")
	}
}

func TestWorkloadForNames(t *testing.T) {
	cfg := Config{Quick: true}.withDefaults()
	for _, app := range []string{"ffmpeg", "mpi", "wordpress", "web", "cassandra", "nosql"} {
		if _, err := WorkloadFor(app, cfg); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	if _, err := WorkloadFor("redis", cfg); err == nil {
		t.Fatal("unknown app")
	}
}

func TestRunProfileVanillaCNShowsThrottles(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run is a long integration test")
	}
	res, err := RunProfile(ProfileSpec{
		App: "wordpress", Platform: "cn", Mode: "vanilla", Size: "xLarge",
	}, Config{Quick: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.MetricSecs <= 0 {
		t.Fatalf("metric %v", res.MetricSecs)
	}
	col := res.Collector
	if col.Events() == 0 {
		t.Fatal("no trace events")
	}
	// The deployment's cgroup must appear in cpudist and pay IO off-CPU time.
	var key string
	for _, k := range col.Keys() {
		if strings.HasPrefix(k, "cn") && col.OnCPUHist(k) != nil {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatalf("container group missing from cpudist keys %v", col.Keys())
	}
	if col.OffCPUHist(key, sched.BlockIO) == nil {
		t.Fatal("IO off-CPU histogram missing")
	}
	// A quota'd web burst at xLarge must throttle.
	if col.ThrottleCount(key) == 0 {
		t.Fatal("vanilla CN under load must throttle")
	}
	var buf bytes.Buffer
	col.Report(&buf)
	if !strings.Contains(buf.String(), "cgroup throttles") {
		t.Fatal("report must include the throttle section")
	}
}

func TestRunProfilePinnedVMCN(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run is a long integration test")
	}
	res, err := RunProfile(ProfileSpec{
		App: "ffmpeg", Platform: "vmcn", Mode: "pinned", Size: "Large",
	}, Config{Quick: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// The guest machine's scheduler is the traced one for VMCN.
	if res.Collector.Events() == 0 {
		t.Fatal("guest scheduler events must flow through the inherited trace")
	}
}

func TestRunProfileValidation(t *testing.T) {
	cfg := Config{Quick: true}
	if _, err := RunProfile(ProfileSpec{App: "ffmpeg", Platform: "zz", Mode: "vanilla", Size: "xLarge"}, cfg); err == nil {
		t.Fatal("bad platform")
	}
	if _, err := RunProfile(ProfileSpec{App: "ffmpeg", Platform: "cn", Mode: "zz", Size: "xLarge"}, cfg); err == nil {
		t.Fatal("bad mode")
	}
	if _, err := RunProfile(ProfileSpec{App: "ffmpeg", Platform: "cn", Mode: "vanilla", Size: "petaLarge"}, cfg); err == nil {
		t.Fatal("bad size")
	}
	if _, err := RunProfile(ProfileSpec{App: "redis", Platform: "cn", Mode: "vanilla", Size: "xLarge"}, cfg); err == nil {
		t.Fatal("bad app")
	}
}
