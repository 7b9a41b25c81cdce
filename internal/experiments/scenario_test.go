package experiments

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/platform"
)

// scenarioFixture is a small hand-built scenario exercising every spec
// feature: a canned series, a custom stack with tenants and tenant
// workloads, per-cell hosts, memory and workload overrides.
func scenarioFixture() Scenario {
	return Scenario{
		Name:     "fixture",
		Title:    "fixture scenario",
		SeedTag:  []uint64{77},
		Reps:     2,
		Baseline: "Vanilla BM",
		Workload: &WorkloadSpec{Driver: "ffmpeg"},
		Series: []ScenarioSeries{
			{Platform: &platform.Spec{Kind: platform.BM, Mode: platform.Vanilla}},
			{
				Label: "2 pinned tenants",
				Stack: platform.Stack{
					Layers:  []platform.Layer{{Kind: platform.LayerHost}},
					Tenants: []platform.TenantSpec{{Cores: 2, Pinned: true}, {Cores: 2, Pinned: true}},
				},
				TenantWorkloads: []WorkloadSpec{{Driver: "cassandra"}},
			},
		},
		Cells: []ScenarioCell{
			{Label: "small", Host: "small16", Cores: 2, MemGB: 8},
			{Label: "large", Cores: 4,
				Workload: &WorkloadSpec{Driver: "ffmpeg", Params: json.RawMessage(`{"Segments": 3}`)}},
		},
	}
}

// TestScenarioFingerprintStability pins the fixture's fingerprint to a
// literal, proving the derivation is a pure function of the spec's values —
// no pointer formatting, no map iteration — and therefore identical across
// processes. If an intentional spec-format change lands, regenerate the
// literal with `go test -run TestScenarioFingerprintStability -v` and say
// so in the PR.
func TestScenarioFingerprintStability(t *testing.T) {
	fp := scenarioFixture().Fingerprint()
	if again := scenarioFixture().Fingerprint(); again != fp {
		t.Fatalf("fingerprint not deterministic in-process: %s vs %s", fp, again)
	}
	const pinned = "55c8c360ec726173"
	if fp != pinned {
		t.Fatalf("fixture fingerprint %s, want pinned %s — the spec serialization changed", fp, pinned)
	}
}

// TestScenarioFingerprintCollisions asserts every spec field participates
// in the fingerprint: mutating any one — grid shape, stack depth, tenant
// count, driver parameters, seed tag, reps, hosts, memory — must change it.
func TestScenarioFingerprintCollisions(t *testing.T) {
	base := scenarioFixture()
	fp := base.Fingerprint()
	mutate := map[string]func(*Scenario){
		"name":             func(s *Scenario) { s.Name = "other" },
		"title":            func(s *Scenario) { s.Title = "other" },
		"seed tag":         func(s *Scenario) { s.SeedTag = []uint64{78} },
		"extra tag":        func(s *Scenario) { s.SeedTag = append(s.SeedTag, 1) },
		"reps":             func(s *Scenario) { s.Reps = 3 },
		"baseline":         func(s *Scenario) { s.Baseline = "" },
		"default workload": func(s *Scenario) { s.Workload.Driver = "mpi" },
		"driver params": func(s *Scenario) {
			s.Cells[1].Workload.Params = json.RawMessage(`{"Segments": 4}`)
		},
		"series order": func(s *Scenario) { s.Series[0], s.Series[1] = s.Series[1], s.Series[0] },
		"series label": func(s *Scenario) { s.Series[1].Label = "renamed" },
		"platform mode": func(s *Scenario) {
			s.Series[0].Platform = &platform.Spec{Kind: platform.BM, Mode: platform.Pinned}
		},
		"stack depth": func(s *Scenario) {
			s.Series[1].Stack.Layers = append(s.Series[1].Stack.Layers,
				platform.Layer{Kind: platform.LayerGuest})
		},
		"tenant count": func(s *Scenario) {
			s.Series[1].Stack.Tenants = append(s.Series[1].Stack.Tenants,
				platform.TenantSpec{Cores: 2})
		},
		"tenant pinning": func(s *Scenario) { s.Series[1].Stack.Tenants[0].Pinned = false },
		"series ablate":  func(s *Scenario) { s.Series[1].Ablate = machine.AblateNUMA },
		"tenant workload": func(s *Scenario) {
			s.Series[1].TenantWorkloads[0].Driver = "wordpress"
		},
		"cell host":  func(s *Scenario) { s.Cells[0].Host = "paper" },
		"cell cores": func(s *Scenario) { s.Cells[0].Cores = 4 },
		"cell mem":   func(s *Scenario) { s.Cells[0].MemGB = 16 },
		"cell count": func(s *Scenario) { s.Cells = s.Cells[:1] },
	}
	seen := map[string]string{fp: "base"}
	for field, mut := range mutate {
		s := scenarioFixture()
		mut(&s)
		got := s.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("mutating %q collides with %s (fingerprint %s)", field, prev, got)
			continue
		}
		seen[got] = field
	}
}

// TestScenarioFingerprintDelimiterForgery asserts a field-separator inside
// one free-text field cannot forge an adjacent field's boundary: two specs
// whose concatenated text is identical but whose field split differs must
// fingerprint differently.
func TestScenarioFingerprintDelimiterForgery(t *testing.T) {
	a, b := scenarioFixture(), scenarioFixture()
	a.Title, a.Description = "t|d", "x"
	b.Title, b.Description = "t", "d|x"
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("delimiter inside Title forged the Title/Description boundary")
	}
	a, b = scenarioFixture(), scenarioFixture()
	a.Series[1].Stack.Tenants[0].Name = `x"(c9`
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("tenant name must participate in the fingerprint, delimiter-safely")
	}
}

// TestRegisteredScenarioJSONRoundTrip locks the declarative contract for
// every registered scenario: Marshal → Unmarshal → Fingerprint must be the
// identity, and the round-tripped spec must still validate.
func TestRegisteredScenarioJSONRoundTrip(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 8 {
		t.Fatalf("registry lists %d scenarios, want the 8 builtins", len(scs))
	}
	for _, sc := range scs {
		data, err := sc.MarshalIndentJSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.Name, err)
		}
		back, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if back.Fingerprint() != sc.Fingerprint() {
			t.Fatalf("%s: JSON round-trip changed the fingerprint:\n%s", sc.Name, data)
		}
	}
}

// TestExampleScenarioFilesRunWithMemoHits is the acceptance check for the
// two shipped example specs: a ≥3-tenant co-location and a ≥3-machine-layer
// nested stack both load from JSON, run, and hit the memo on a repeat run
// (zero new simulations).
func TestExampleScenarioFilesRunWithMemoHits(t *testing.T) {
	for _, path := range []string{
		"../../examples/scenarios/colocate3.json",
		"../../examples/scenarios/nested.json",
	} {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cfg := Config{Quick: true, Reps: 1, Seed: 9, Executor: Pool{Workers: 1}, Memo: NewTrialMemo()}
		first, err := RunScenario(cfg, sc)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		missesAfterFirst := cfg.Memo.Stats().Misses
		if missesAfterFirst == 0 {
			t.Fatalf("%s: first run must simulate", path)
		}
		second, err := RunScenario(cfg, sc)
		if err != nil {
			t.Fatalf("%s: repeat: %v", path, err)
		}
		if cfg.Memo.Stats().Misses != missesAfterFirst {
			t.Fatalf("%s: repeat run re-simulated %d trials instead of hitting the memo",
				path, cfg.Memo.Stats().Misses-missesAfterFirst)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: memoized repeat diverged", path)
		}
	}
}

// TestExampleScenarioShapes pins the structural claims the examples make:
// colocate3 really co-locates ≥3 tenants, nested really stacks ≥3 machine
// layers.
func TestExampleScenarioShapes(t *testing.T) {
	co, err := LoadScenario("../../examples/scenarios/colocate3.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range co.Series {
		if n := len(se.Stack.Tenants); n < 3 {
			t.Fatalf("colocate3 series %q has %d tenants, want ≥3", se.Label, n)
		}
	}
	ne, err := LoadScenario("../../examples/scenarios/nested.json")
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
	for _, se := range ne.Series {
		if d := se.Stack.Depth(); d > deepest {
			deepest = d
		}
	}
	if deepest < 3 {
		t.Fatalf("nested example's deepest stack has %d machine layers, want ≥3", deepest)
	}
}

// TestScenarioWorkerInvariance asserts a tenant-bearing scenario is
// bit-identical across worker counts, like every figure.
func TestScenarioWorkerInvariance(t *testing.T) {
	sc, err := LoadScenario("../../examples/scenarios/colocate3.json")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunScenario(Config{Quick: true, Reps: 2, Seed: 5, Executor: Pool{Workers: 1}}, sc)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunScenario(Config{Quick: true, Reps: 2, Seed: 5, Executor: Pool{Workers: 8}}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("scenario output depends on worker count")
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := map[string]func(*Scenario){
		"no name":      func(s *Scenario) { s.Name = "" },
		"no series":    func(s *Scenario) { s.Series = nil },
		"no cells":     func(s *Scenario) { s.Cells = nil },
		"dup labels":   func(s *Scenario) { s.Series[1].Label = s.Series[0].Platform.Label() },
		"bad stack":    func(s *Scenario) { s.Series[1].Stack.Layers[0].Kind = "pod" },
		"bad driver":   func(s *Scenario) { s.Workload.Driver = "nope" },
		"bad params":   func(s *Scenario) { s.Cells[1].Workload.Params = json.RawMessage(`{"Nope": 1}`) },
		"bad host":     func(s *Scenario) { s.Cells[0].Host = "mars" },
		"zero cores":   func(s *Scenario) { s.Cells[0].Cores = 0 },
		"no workload":  func(s *Scenario) { s.Workload = nil; s.Cells[0].Workload = nil; s.Cells[1].Workload = nil },
		"bad baseline": func(s *Scenario) { s.Baseline = "missing" },
		"more tenant workloads than tenants": func(s *Scenario) {
			s.Series[1].TenantWorkloads = []WorkloadSpec{
				{Driver: "ffmpeg"}, {Driver: "ffmpeg"}, {Driver: "cassandra"},
			}
		},
		"tenant workloads without tenants": func(s *Scenario) {
			s.Series[1].Stack.Tenants = nil
			s.Series[1].TenantWorkloads = []WorkloadSpec{{Driver: "ffmpeg"}, {Driver: "cassandra"}}
		},
	}
	for name, mut := range cases {
		s := scenarioFixture()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate must fail", name)
		}
	}
	if err := scenarioFixture().Validate(); err != nil {
		t.Fatalf("fixture must validate: %v", err)
	}
}

// TestParseScenarioAblation: a series' "ablate" list decodes to its bit set
// and marshals back to the same names; an unknown name is a decode error
// that lists the valid ones.
func TestParseScenarioAblation(t *testing.T) {
	const spec = `{"name":"abl","workload":{"driver":"ffmpeg"},"cells":[{"label":"l","cores":2}],
		"series":[{"platform":{"kind":"CN","mode":"Pinned"}},
		          {"label":"no numa","platform":{"kind":"CN","mode":"Pinned"},"ablate":[%s]}]}`
	sc, err := ParseScenario([]byte(fmt.Sprintf(spec, `"numa","acct-walk"`)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Series[1].Ablate; got != machine.AblateNUMA|machine.AblateAcctWalk || sc.Series[0].Ablate != 0 {
		t.Fatalf("ablations = %#x, %#x", sc.Series[0].Ablate, got)
	}
	data, err := sc.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"ablate"`); n != 1 || !strings.Contains(string(data), `"acct-walk",`) {
		t.Fatalf("marshalled spec carries %d ablate keys:\n%s", n, data)
	}
	_, err = ParseScenario([]byte(fmt.Sprintf(spec, `"numa","no-such-mechanism"`)))
	if err == nil || !strings.Contains(err.Error(), `"no-such-mechanism"`) || !strings.Contains(err.Error(), "vm-fastpath") {
		t.Fatalf("unknown ablation error = %v", err)
	}
}

func TestUnknownScenarioErrorListsSortedNames(t *testing.T) {
	err := UnknownScenarioError("zzz")
	msg := err.Error()
	names := ScenarioNames()
	if !sortedStrings(names) {
		t.Fatal("ScenarioNames must be sorted")
	}
	for _, n := range names {
		if !strings.Contains(msg, n) {
			t.Fatalf("error %q misses registered name %s", msg, n)
		}
	}
	if _, err := RunRegistered("zzz", Config{}); err == nil {
		t.Fatal("unknown scenario must fail")
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// TestScenarioValueSemantics locks two aliasing hazards: Fingerprint (which
// applies defaults internally) must not write labels back into the caller's
// Series backing array, and mutating a registry lookup's result must not
// corrupt the stored registration.
func TestScenarioValueSemantics(t *testing.T) {
	s := scenarioFixture() // series 0 has Platform set, Label empty
	_ = s.Fingerprint()
	if s.Series[0].Label != "" {
		t.Fatalf("Fingerprint mutated the caller's series: %q", s.Series[0].Label)
	}
	sc, ok := ScenarioByName("fig7")
	if !ok {
		t.Fatal("fig7 missing")
	}
	want := sc.Series[0].Label
	sc.Series[0].Label = "corrupted"
	sc.Workload.Driver = "mpi"      // shared *WorkloadSpec would corrupt
	sc.Series[0].Platform.Mode = 99 // shared *platform.Spec would corrupt
	sc.Series[0].Stack.Layers = nil // shared backing array would corrupt
	again, _ := ScenarioByName("fig7")
	if again.Series[0].Label != want {
		t.Fatalf("mutating a lookup result corrupted the registry: %q", again.Series[0].Label)
	}
	if again.Workload.Driver != "ffmpeg" || again.Series[0].Platform.Mode == 99 {
		t.Fatal("registry lookups must deep-copy pointer fields")
	}
}

func TestRegisterScenarioRejectsDuplicatesAndInvalid(t *testing.T) {
	if err := RegisterScenario(scenarioFixture()); err != nil {
		t.Fatalf("fixture registration: %v", err)
	}
	defer func() { // keep the shared registry clean for other tests
		registryMu.Lock()
		delete(registry, "fixture")
		registryMu.Unlock()
	}()
	if err := RegisterScenario(scenarioFixture()); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	bad := scenarioFixture()
	bad.Name = "bad"
	bad.Cells = nil
	if err := RegisterScenario(bad); err == nil {
		t.Fatal("invalid scenario must not register")
	}
}
