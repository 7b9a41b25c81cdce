package experiments

// The declarative scenario engine. A Scenario is pure data — series
// (platform stacks, possibly multi-tenant) × cells (host, instance size,
// workload parameters) — executed by RunScenario through the same parallel
// trial runner, substream seeding and memoization as everything else in
// this package. The paper's figures are registered Scenario values
// (builtin.go); user-defined scenarios load from JSON (`pinsim -scenario
// run.json`) and flow through the identical code path, which is what lets
// nested container-in-VM-in-VM stacks and K-tenant co-location runs reuse
// the runner, the memo cache and the sweep machinery unchanged.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// WorkloadSpec names a workload driver and its parameter overrides — the
// declarative form of a workload inside a scenario.
type WorkloadSpec struct {
	// Driver is a registry name or alias (workload.DriverNames).
	Driver string `json:"driver"`
	// Params is a JSON object of the driver's parameter struct, overlaid
	// onto its defaults; omitted fields keep the defaults, unknown fields
	// are rejected.
	Params json.RawMessage `json:"params,omitempty"`
}

// clone deep-copies the spec (nil-safe); Params bytes are copied because
// json.RawMessage aliases its backing array.
func (ws *WorkloadSpec) clone() *WorkloadSpec {
	if ws == nil {
		return nil
	}
	c := *ws
	c.Params = append(json.RawMessage(nil), ws.Params...)
	return &c
}

// Resolve builds the concrete workload: defaults, overrides, then the
// driver's Quick scaling when quick is set.
func (ws WorkloadSpec) Resolve(quick bool) (workload.Driver, error) {
	d, err := workload.UnmarshalDriver(ws.Driver, ws.Params)
	if err != nil {
		return nil, err
	}
	if quick {
		d = d.ScaleQuick()
	}
	return d, nil
}

// fingerprint is the Quick-independent identity of the spec: the canonical
// driver name plus the fully-resolved parameter struct. Resolving first
// makes the fingerprint independent of how the JSON spelled the overrides.
func (ws WorkloadSpec) fingerprint() string {
	d, err := ws.Resolve(false)
	if err != nil {
		return "!" + ws.Driver + ":" + err.Error()
	}
	return fmt.Sprintf("%s{%+v}", d.DriverName(), d)
}

// ScenarioSeries is one legend entry: a deployable stack, optionally with
// per-tenant workload overrides.
type ScenarioSeries struct {
	Label string `json:"label"`
	// Platform, when set, is the canned (kind, mode) identity: it supplies
	// the Stack when Stack is empty, the Label when Label is empty, and the
	// platform tag the analytic model reads from figure series.
	Platform *platform.Spec `json:"platform,omitempty"`
	// Stack is the composable deployment; empty falls back to
	// Platform.Stack(). Layer/tenant sizes of 0 inherit the cell's Cores.
	Stack platform.Stack `json:"stack,omitempty"`
	// TenantWorkloads assigns tenants their own workloads by position;
	// tenants beyond the list run the cell's workload.
	TenantWorkloads []WorkloadSpec `json:"tenant_workloads,omitempty"`
	// Ablate switches overhead mechanisms off in every trial of the series
	// (in JSON, a list of names such as ["numa","acct-walk"]). An ablated
	// series and its unablated control belong to one scenario, so one
	// figure holds both arms of the comparison.
	Ablate machine.Ablation `json:"ablate,omitempty"`
}

// label resolves the series' effective label (what withDefaults fills in).
func (s ScenarioSeries) label() string {
	if s.Label == "" && s.Platform != nil {
		return s.Platform.Label()
	}
	return s.Label
}

// stack resolves the series' deployable stack.
func (s ScenarioSeries) stack() platform.Stack {
	if len(s.Stack.Layers) > 0 {
		return s.Stack
	}
	if s.Platform != nil {
		return s.Platform.Stack()
	}
	return platform.Stack{}
}

// ScenarioCell is one x-axis point: where and how big the deployment is,
// and what it runs.
type ScenarioCell struct {
	Label string `json:"label"`
	// Host names the physical host topology ("paper", "small16"); empty
	// uses Config.Host.
	Host string `json:"host,omitempty"`
	// Cores is the instance size (Table II); layer/tenant sizes inherit it.
	Cores int `json:"cores"`
	// MemGB is the instance memory; 0 applies the 4 GB/core Table II rule.
	MemGB int `json:"mem_gb,omitempty"`
	// Workload overrides the scenario's default workload for this cell.
	Workload *WorkloadSpec `json:"workload,omitempty"`
}

// Scenario is a declarative experiment: series × cells, run for Reps
// repetitions each and aggregated into a Figure.
type Scenario struct {
	// Name is the registry key (`pinsim -fig <name>`).
	Name string `json:"name"`
	// ID is the figure id rendered in output headers; defaults to Name.
	ID string `json:"id,omitempty"`
	// Title is the figure caption.
	Title string `json:"title,omitempty"`
	// Description documents what the scenario reproduces (`pinsim -list`).
	Description string `json:"description,omitempty"`
	// Metric labels the y-axis; default "Average Execution Time (s)".
	Metric string `json:"metric,omitempty"`
	// XTitle labels the x-axis; default "Instance Types".
	XTitle string `json:"x_title,omitempty"`
	// SeedTag is prepended to every trial's substream derivation,
	// decorrelating this scenario's trials from scenarios sharing grid
	// coordinates. The paper's matrix figures use no tag (their historical
	// derivation), Figs 7/8 use their figure number.
	SeedTag []uint64 `json:"seed_tag,omitempty"`
	// Reps is the default repetition count per cell (paper figures: 20,
	// except 6 for WordPress); Config.Reps and Quick override it. 0 = 3.
	Reps int `json:"reps,omitempty"`
	// Baseline is the label of the series ratios are computed against
	// (empty = no baseline).
	Baseline string `json:"baseline,omitempty"`
	// Workload is the default workload of every cell.
	Workload *WorkloadSpec    `json:"workload,omitempty"`
	Series   []ScenarioSeries `json:"series"`
	Cells    []ScenarioCell   `json:"cells"`
}

// withDefaults fills derivable fields. Scenario travels by value but its
// Series share a backing array with the caller's, so the slice is copied
// before labels are filled in — without the copy, Fingerprint/RunScenario
// would mutate the caller's spec (and race when called concurrently on a
// shared value).
func (s Scenario) withDefaults() Scenario {
	if s.ID == "" {
		s.ID = s.Name
	}
	if s.Metric == "" {
		s.Metric = "Average Execution Time (s)"
	}
	if s.XTitle == "" {
		s.XTitle = "Instance Types"
	}
	if s.Reps <= 0 {
		s.Reps = 3
	}
	series := make([]ScenarioSeries, len(s.Series))
	copy(series, s.Series)
	for i := range series {
		if series[i].Label == "" && series[i].Platform != nil {
			series[i].Label = series[i].Platform.Label()
		}
	}
	s.Series = series
	return s
}

// HostByName resolves a scenario host name to its topology; the empty name
// means "the configured default" and resolves to nil.
func HostByName(name string) (*topology.Topology, error) {
	switch name {
	case "":
		return nil, nil
	case "paper":
		return topology.PaperHost(), nil
	case "small16":
		return topology.SmallHost16(), nil
	}
	return nil, fmt.Errorf("experiments: unknown host %q (have paper, small16)", name)
}

// Validate checks the scenario is runnable: non-empty identity and grid,
// resolvable stacks, hosts and workloads, a baseline that names a series.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("experiments: scenario needs a name")
	}
	if len(s.Series) == 0 {
		return fmt.Errorf("experiments: scenario %s has no series", s.Name)
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("experiments: scenario %s has no cells", s.Name)
	}
	seen := map[string]bool{}
	for i, se := range s.Series {
		label := se.label()
		if label == "" {
			return fmt.Errorf("experiments: scenario %s series %d needs a label (or a platform)", s.Name, i)
		}
		if seen[label] {
			return fmt.Errorf("experiments: scenario %s has duplicate series label %q", s.Name, label)
		}
		seen[label] = true
		st := se.stack()
		if len(st.Layers) == 0 {
			return fmt.Errorf("experiments: scenario %s series %q has neither stack nor platform", s.Name, se.Label)
		}
		if err := st.Validate(); err != nil {
			return fmt.Errorf("experiments: scenario %s series %q: %w", s.Name, se.Label, err)
		}
		// Tenant workload overrides bind by position; more overrides than
		// tenants means some would silently never run (e.g. a co-location
		// stressor dropped because the tenants list was edited away), so
		// the mismatch is an error rather than a truncation.
		if slots := max(1, len(st.Tenants)); len(se.TenantWorkloads) > slots {
			return fmt.Errorf("experiments: scenario %s series %q lists %d tenant workloads for %d tenant slot(s)",
				s.Name, label, len(se.TenantWorkloads), slots)
		}
		for ti, tw := range se.TenantWorkloads {
			if _, err := tw.Resolve(false); err != nil {
				return fmt.Errorf("experiments: scenario %s series %q tenant %d: %w", s.Name, se.Label, ti, err)
			}
		}
	}
	if s.Baseline != "" && !seen[s.Baseline] {
		return fmt.Errorf("experiments: scenario %s baseline %q names no series", s.Name, s.Baseline)
	}
	for i, c := range s.Cells {
		if c.Label == "" {
			return fmt.Errorf("experiments: scenario %s cell %d needs a label", s.Name, i)
		}
		if c.Cores <= 0 {
			return fmt.Errorf("experiments: scenario %s cell %q needs positive cores", s.Name, c.Label)
		}
		if _, err := HostByName(c.Host); err != nil {
			return fmt.Errorf("experiments: scenario %s cell %q: %w", s.Name, c.Label, err)
		}
		ws := c.Workload
		if ws == nil {
			ws = s.Workload
		}
		if ws == nil {
			return fmt.Errorf("experiments: scenario %s cell %q has no workload (set the cell's or the scenario's)", s.Name, c.Label)
		}
		if _, err := ws.Resolve(false); err != nil {
			return fmt.Errorf("experiments: scenario %s cell %q: %w", s.Name, c.Label, err)
		}
	}
	return nil
}

// Fingerprint returns a stable 64-bit identity of the spec, hex-encoded.
// Two scenarios differing in any field — stack depth, tenant count, driver
// parameters, seed tag, grid shape — fingerprint differently, and the same
// spec fingerprints identically across processes: the serialization walks
// only value fields in declaration order (no pointer formatting, no map
// iteration — the Topology.Fingerprint lesson).
func (s Scenario) Fingerprint() string {
	return fmt.Sprintf("%016x", cache.HashKey(s.canonical()))
}

// canonical is the value-only serialization Fingerprint hashes. Free-text
// fields are %q-quoted so a delimiter inside one field cannot forge
// another's boundary (e.g. Title "t|d" + Description "x" must not collide
// with Title "t" + Description "d|x").
func (s Scenario) canonical() string {
	var b strings.Builder
	s = s.withDefaults()
	fmt.Fprintf(&b, "scenario|%q|%q|%q|%q|%q|%q|reps=%d|base=%q|tag=%v",
		s.Name, s.ID, s.Title, s.Description, s.Metric, s.XTitle, s.Reps, s.Baseline, s.SeedTag)
	if s.Workload != nil {
		fmt.Fprintf(&b, "|w=%s", s.Workload.fingerprint())
	}
	for _, se := range s.Series {
		fmt.Fprintf(&b, "|s=%q#%s", se.Label, se.stack().Fingerprint())
		if se.Platform != nil {
			fmt.Fprintf(&b, "@%s/%s/%d", se.Platform.Kind, se.Platform.Mode, se.Platform.Cores)
		}
		for _, tw := range se.TenantWorkloads {
			fmt.Fprintf(&b, "&%s", tw.fingerprint())
		}
		// Appended only when set, so unablated scenarios keep their
		// fingerprints.
		if se.Ablate != 0 {
			fmt.Fprintf(&b, "~ablate=%d", se.Ablate)
		}
	}
	for _, c := range s.Cells {
		fmt.Fprintf(&b, "|c=%q@%q:%dc/%dGB", c.Label, c.Host, c.Cores, c.MemGB)
		if c.Workload != nil {
			fmt.Fprintf(&b, "&%s", c.Workload.fingerprint())
		}
	}
	return b.String()
}

// ParseScenario decodes one scenario from strict JSON (unknown fields are
// errors) and validates it.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("experiments: scenario JSON: %w", err)
	}
	// A spec file is one document; trailing content (a concatenated second
	// object, a botched merge) would otherwise be silently discarded.
	if dec.More() {
		return Scenario{}, fmt.Errorf("experiments: scenario JSON: trailing content after the spec object")
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// LoadScenario reads and parses a scenario JSON file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("experiments: scenario: %w", err)
	}
	return ParseScenario(data)
}

// MarshalIndentJSON renders the round-trippable form: Marshal → Unmarshal →
// Fingerprint is the identity (locked by the registry round-trip test).
func (s Scenario) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// scenarioGrid is a scenario resolved against one Config: every trial's
// inputs, addressed by grid index i = (series·cells + cell)·reps + rep.
type scenarioGrid struct {
	reps, nC int
	cells    []scenarioCell        // per cell
	stacks   []platform.Stack      // per series
	ablates  []machine.Ablation    // per series
	wlists   [][]workload.Workload // per (series, cell)
	seeds    []uint64              // per trial
}

// scenarioCell is one cell's resolved host, size and workload.
type scenarioCell struct {
	host         *topology.Topology
	cores, memGB int
	w            workload.Workload
}

// input returns trial i's inputs.
func (g *scenarioGrid) input(i int) trialInput {
	si, ci := i/(g.nC*g.reps), i/g.reps%g.nC
	c := &g.cells[ci]
	return trialInput{c.host, g.stacks[si], c.cores, g.wlists[si*g.nC+ci], c.memGB, g.seeds[i], g.ablates[si]}
}

// planScenario resolves every cell's host and workload, every series'
// stack and tenant workloads and every trial's seed once, up front, so
// the per-trial closure allocates nothing. cfg and sc carry their
// defaults.
func planScenario(cfg Config, sc Scenario) (*scenarioGrid, error) {
	nC := len(sc.Cells)
	g := &scenarioGrid{
		reps:    cfg.reps(sc.Reps),
		nC:      nC,
		cells:   make([]scenarioCell, nC),
		stacks:  make([]platform.Stack, len(sc.Series)),
		ablates: make([]machine.Ablation, len(sc.Series)),
		wlists:  make([][]workload.Workload, len(sc.Series)*nC),
	}
	for ci, c := range sc.Cells {
		host, err := HostByName(c.Host)
		if err != nil {
			return nil, err
		}
		if host == nil {
			host = cfg.Host
		}
		ws := c.Workload
		if ws == nil {
			ws = sc.Workload
		}
		w, err := ws.Resolve(cfg.Quick)
		if err != nil {
			return nil, err
		}
		g.cells[ci] = scenarioCell{host: host, cores: c.Cores, memGB: c.MemGB, w: w}
	}
	for si, se := range sc.Series {
		g.stacks[si] = se.stack()
		g.ablates[si] = se.Ablate
		var tenantWs []workload.Workload
		for _, tw := range se.TenantWorkloads {
			w, err := tw.Resolve(cfg.Quick)
			if err != nil {
				return nil, err
			}
			tenantWs = append(tenantWs, w)
		}
		// The per-tenant workload list of a trial: tenant overrides by
		// position, the cell workload for the rest.
		n := len(g.stacks[si].Tenants)
		if n == 0 {
			n = 1
		}
		for ci := range sc.Cells {
			out := make([]workload.Workload, n)
			for t := range out {
				if t < len(tenantWs) {
					out[t] = tenantWs[t]
				} else {
					out[t] = g.cells[ci].w
				}
			}
			g.wlists[si*nC+ci] = out
		}
	}
	g.seeds = make([]uint64, len(sc.Series)*nC*g.reps)
	parts := make([]uint64, 0, len(sc.SeedTag)+3)
	for i := range g.seeds {
		si, ci, rep := i/(nC*g.reps), i/g.reps%nC, i%g.reps
		parts = append(parts[:0], sc.SeedTag...)
		parts = append(parts, uint64(si), uint64(ci), uint64(rep))
		g.seeds[i] = seedFor(cfg.Seed, parts...)
	}
	return g, nil
}

// RunScenario executes a scenario: its (series × cells × reps) grid fans
// out through Config.Executor with per-trial substream seeds derived from
// SeedTag and grid coordinates alone, so output is bit-identical at any
// worker count, and Config.Memo skips trials an earlier run simulated.
func RunScenario(cfg Config, sc Scenario) (Figure, error) {
	cfg = cfg.withDefaults()
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Figure{}, err
	}
	g, err := planScenario(cfg, sc)
	if err != nil {
		return Figure{}, err
	}
	reps, nC := g.reps, g.nC

	fig := Figure{
		ID:          sc.ID,
		Title:       sc.Title,
		Metric:      sc.Metric,
		XTitle:      sc.XTitle,
		BaselineIdx: -1,
	}
	for _, c := range sc.Cells {
		fig.XLabels = append(fig.XLabels, c.Label)
	}
	for si, se := range sc.Series {
		if sc.Baseline != "" && se.Label == sc.Baseline {
			fig.BaselineIdx = si
		}
	}

	results := make([]TrialResult, len(g.seeds))
	// One trialCell per (series, cell) for the length of this call.
	cells := make([]trialCell, len(g.wlists))
	err = forEachCellTrial(cfg, len(cells), reps, func(tc *TrialContext, cell, rep int) error {
		i := cell*reps + rep
		r, err := runTrial(tc, cfg, &cells[cell], g.input(i))
		if err != nil {
			si, ci := cell/nC, cell%nC
			return fmt.Errorf("%s %s %s: %w", sc.Name, sc.Series[si].Label, sc.Cells[ci].Label, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return Figure{}, err
	}

	for si, se := range sc.Series {
		sr := SeriesResult{Label: se.Label}
		if se.Platform != nil {
			sr.Spec = *se.Platform
			sr.HasPlatform = true
		}
		for ci := range sc.Cells {
			vals := make([]float64, 0, reps)
			var bd sched.Breakdown
			for rep := 0; rep < reps; rep++ {
				r := results[(si*nC+ci)*reps+rep]
				vals = append(vals, r.Metric)
				bd = r.Breakdown // last repetition, as always
			}
			sr.Cells = append(sr.Cells, Cell{Summary: stats.Summarize(vals), Breakdown: bd})
		}
		fig.Series = append(fig.Series, sr)
	}
	fig.computeRatios(cfg)
	return fig, nil
}
