// Package pinning reproduces "The Art of CPU-Pinning: Evaluating and
// Improving the Performance of Virtualization and Containerization
// Platforms" (GhatrehSamani, Denninnart, Bacik, Amini Salehi — ICPP 2020).
//
// It bundles two things:
//
//   - a discrete-event model of the paper's testbed — CFS scheduling,
//     cgroup quota/cpuset provisioning, IRQ/IO affinity, a KVM-style
//     hypervisor overlay — able to regenerate every figure and table of the
//     paper's evaluation (see cmd/pinsim and the Benchmark* functions);
//
//   - the paper's actionable findings as a library: application
//     classification, PTO/PSO overhead decomposition, CHR bands and the
//     best-practice Advisor.
//
// This facade re-exports the stable surface of the internal packages.
package pinning

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hypotheses"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Re-exported core types: the paper's contribution as an API.
type (
	// AppClass is the paper's application taxonomy (Table I).
	AppClass = core.AppClass
	// Profile describes an application for the Advisor.
	Profile = core.Profile
	// Recommendation is the Advisor's output.
	Recommendation = core.Recommendation
	// CHRBand is a recommended Container-to-Host core Ratio range (§IV-A).
	CHRBand = core.CHRBand

	// Topology describes a host (sockets × cores × SMT threads).
	Topology = topology.Topology
	// CPUSet is a set of logical CPUs (affinity masks, cpusets, pin plans).
	CPUSet = topology.CPUSet

	// PlatformKind is one of the four execution platforms (Table III).
	PlatformKind = platform.Kind
	// Mode is the CPU-provisioning mode (§II-D).
	Mode = platform.Mode
	// PlatformSpec is a deployable (kind, mode, cores) combination — the
	// series axis of figures and sweeps.
	PlatformSpec = platform.Spec
	// PlatformStack is the composable deployment form: host, nested guests,
	// cgroups and co-located tenants (Spec.Stack() gives the canned four).
	PlatformStack = platform.Stack
	// PlatformLayer is one level of a PlatformStack.
	PlatformLayer = platform.Layer
	// TenantSpec describes one of several co-located deployments sharing
	// the machine a stack produces.
	TenantSpec = platform.TenantSpec

	// ExperimentConfig controls figure regeneration, including the parallel
	// trial fan-out (Executor), per-trial memoization (Memo) and the
	// long-run progress callback (Progress).
	ExperimentConfig = experiments.Config
	// Figure is a regenerated paper figure.
	Figure = experiments.Figure

	// Scenario is a declarative experiment: series (platform stacks,
	// possibly multi-tenant) × cells (host, size, workload parameters),
	// run by RunScenario and registrable for name dispatch.
	Scenario = experiments.Scenario
	// ScenarioSeries is one legend entry of a Scenario.
	ScenarioSeries = experiments.ScenarioSeries
	// ScenarioCell is one x-axis point of a Scenario.
	ScenarioCell = experiments.ScenarioCell
	// WorkloadSpec names a workload driver plus parameter overrides.
	WorkloadSpec = experiments.WorkloadSpec

	// SweepSpec defines an arbitrary experiment grid — platforms × CHR
	// points × workloads × memory sizes — beyond the paper's fixed figures.
	SweepSpec = experiments.SweepSpec
	// SweepResult is a completed sweep (one aggregated cell per grid point).
	SweepResult = experiments.SweepResult
	// SweepCell is one grid point of a sweep.
	SweepCell = experiments.SweepCell
	// TrialResult is the memoizable outcome of one simulated trial.
	TrialResult = experiments.TrialResult
	// TrialStore is the pluggable trial-result store behind
	// ExperimentConfig.Memo: the in-memory memo, or a durable disk-backed
	// store (OpenTrialStore) whose results survive the process and merge
	// across shard runs. Its Cells tier keeps sweep cells' bootstrap
	// intervals, so a warm RunSweep replays them instead of redrawing.
	TrialStore = experiments.TrialStore
	// TrialMemo is the in-memory TrialStore tier; share one via
	// ExperimentConfig.Memo to skip already-simulated cells.
	TrialMemo = experiments.TrialMemo
	// StoreStats is a TrialStore's counter snapshot: hits, misses
	// (= simulations executed), records loaded/appended, corrupt records
	// skipped, bytes on disk, and the robustness counters (retries,
	// recoveries, degraded mode, unpersisted results, warnings).
	StoreStats = resultstore.Stats
	// StoreOption configures OpenTrialStore — e.g. StoreDegradedFallback
	// to run memory-only on an unusable store directory instead of failing.
	StoreOption = resultstore.Option

	// TrialExecutor is the pluggable trial-execution strategy behind
	// ExperimentConfig.Executor.
	TrialExecutor = experiments.Executor
	// PoolExecutor fans trials across an atomic-claim worker pool (the
	// default when ExperimentConfig.Executor is nil).
	PoolExecutor = experiments.Pool
	// ShardExecutor deterministically partitions every trial grid so one
	// experiment can run across N machines whose durable stores are merged
	// afterwards (MergeTrialStores).
	ShardExecutor = experiments.Shard
	// TrialPanicsError is PoolExecutor's end-of-sweep report of trials that
	// panicked on both their run and the containment retry: the sweep
	// completed, only the listed trials' cells are missing.
	TrialPanicsError = experiments.TrialPanicsError
	// TrialPanic is one contained trial panic inside a TrialPanicsError.
	TrialPanic = experiments.TrialPanic

	// Hypothesis is one falsifiable claim over a registered scenario: a
	// predicate reduces each per-seed scenario run to a scalar effect, and
	// the effect sample's bootstrap interval is judged against a null
	// boundary (see cmd/pinhyp and hypotheses/README.md).
	Hypothesis = hypotheses.Hypothesis
	// HypothesisPredicate extracts a hypothesis's scalar effect from a
	// figure and states its null boundary and claimed direction.
	HypothesisPredicate = hypotheses.Predicate
	// HypothesisConfig controls a hypothesis run (seed, quick mode, trial
	// fan-out, trial store, resample count).
	HypothesisConfig = hypotheses.Config
	// HypothesisFinding is one evaluated hypothesis: status, mean effect,
	// bootstrap interval, seeds drawn.
	HypothesisFinding = hypotheses.Finding
	// BootstrapInterval is a two-sided confidence interval with its nominal
	// coverage (see BootstrapCI / BootstrapCIBCa in internal/stats).
	BootstrapInterval = stats.Interval

	// OverheadModel is the fitted §VI analytic law R = PTO + A·exp(−CHR/τ).
	OverheadModel = model.Model
	// OverheadSample is one measured (platform, mode, class, CHR, ratio)
	// point for fitting.
	OverheadSample = model.Sample
	// IsolationLevel ranks platforms by the isolation they provide.
	IsolationLevel = model.IsolationLevel
	// ModelConstraints narrow a model-driven recommendation.
	ModelConstraints = model.Constraints
	// ModelChoice is one ranked candidate from the model's Recommend.
	ModelChoice = model.Choice

	// TraceCollector gathers the BCC-analog instruments (cpudist,
	// offcputime, runqlat) from a simulated run.
	TraceCollector = trace.Collector
	// ProfileSpec selects a deployment for BCC-style profiling.
	ProfileSpec = experiments.ProfileSpec

	// AdvisorServer is the always-on pinning-advisor daemon's http.Handler
	// (cmd/pinservd): POST /run serves figures and recommendations from a
	// sharded response cache with singleflight coalescing and admission
	// control. Build with NewAdvisorServer.
	AdvisorServer = serve.Server
	// AdvisorOptions configures an AdvisorServer (run template, simulation
	// bound, queue depth, Retry-After hint).
	AdvisorOptions = serve.Options
	// AdvisorRequest and AdvisorResponse are the POST /run wire shapes.
	AdvisorRequest  = serve.RunRequest
	AdvisorResponse = serve.RunResponse
	// LoadtestOptions and LoadtestReport drive the serving-throughput
	// harness behind pinservd -selftest and the CI serving gate.
	LoadtestOptions = loadtest.Options
	LoadtestReport  = loadtest.Report
)

// Application classes.
const (
	CPUBound     = core.CPUBound
	Parallel     = core.Parallel
	IOBound      = core.IOBound
	UltraIOBound = core.UltraIOBound
)

// Execution platforms (Table III).
const (
	BM   = platform.BM
	VM   = platform.VM
	CN   = platform.CN
	VMCN = platform.VMCN
)

// Provisioning modes (§II-D).
const (
	Vanilla = platform.Vanilla
	Pinned  = platform.Pinned
)

// PaperHost returns the paper's evaluation host: 4-socket, 112 logical
// CPUs (DELL R830, Table II's substrate).
func PaperHost() *Topology { return topology.PaperHost() }

// SmallHost16 returns the 16-core host of the Fig 7 CHR experiment.
func SmallHost16() *Topology { return topology.SmallHost16() }

// Classify maps an application profile onto the paper's taxonomy.
func Classify(p Profile) AppClass { return core.Classify(p) }

// Advise applies the paper's §VI best practices to a profile on a host.
func Advise(p Profile, host *Topology) Recommendation { return core.Advise(p, host) }

// CHR computes the Container-to-Host core Ratio (§IV-A).
func CHR(containerCores int, host *Topology) float64 { return core.CHR(containerCores, host) }

// RecommendedCHR returns best-practice #5's CHR band for a class.
func RecommendedCHR(class AppClass) CHRBand { return core.RecommendedCHR(class) }

// RunFigure regenerates paper figure n (3..8) from the simulator.
func RunFigure(n int, cfg ExperimentConfig) (Figure, error) { return experiments.RunFigure(n, cfg) }

// RunScenario executes a declarative scenario through the parallel trial
// runner; output is bit-identical at any worker count.
func RunScenario(sc Scenario, cfg ExperimentConfig) (Figure, error) {
	return experiments.RunScenario(cfg, sc)
}

// RunNamedScenario runs a registered scenario ("fig3".."fig8",
// "fig6-large", "net", or anything added via RegisterScenario); unknown
// names fail with the sorted registry listing.
func RunNamedScenario(name string, cfg ExperimentConfig) (Figure, error) {
	return experiments.RunRegistered(name, cfg)
}

// RegisterScenario adds a user-defined scenario to the name registry.
func RegisterScenario(sc Scenario) error { return experiments.RegisterScenario(sc) }

// ScenarioNames lists every registered scenario, sorted.
func ScenarioNames() []string { return experiments.ScenarioNames() }

// LoadScenario reads a scenario from a JSON spec file (the `pinsim
// -scenario` format).
func LoadScenario(path string) (Scenario, error) { return experiments.LoadScenario(path) }

// RunSweep runs a user-defined experiment grid through the parallel trial
// runner (see cmd/pinsweep for the CLI form). Results are deterministic for
// any ExperimentConfig.Executor setting.
func RunSweep(spec SweepSpec, cfg ExperimentConfig) (*SweepResult, error) {
	return experiments.Sweep(cfg, spec)
}

// NewTrialMemo returns an empty in-memory trial store for
// ExperimentConfig.Memo.
func NewTrialMemo() *TrialMemo { return experiments.NewTrialMemo() }

// OpenTrialStore opens (creating if needed) the durable trial store at dir
// for ExperimentConfig.Memo: intact records load at open, newly-simulated
// trials append, so repeated runs are incremental across processes.
// Corrupt or stale-schema records are skipped with a warning and
// recomputed — never replayed wrong. An unusable directory fails fast
// unless StoreDegradedFallback is passed. Close the store to flush.
func OpenTrialStore(dir string, opts ...StoreOption) (TrialStore, error) {
	return experiments.OpenTrialStore(dir, opts...)
}

// StoreDegradedFallback makes OpenTrialStore treat an unusable store
// directory as a degraded in-memory store (one warning, results do not
// persist) instead of an error — the library form of the CLIs'
// -store-degraded=allow.
func StoreDegradedFallback() StoreOption { return resultstore.WithDegradedFallback(true) }

// MergeTrialStores loads every intact record of the trial stores at dirs
// into dst — the assembly step after sharded runs (ShardExecutor, or the
// CLIs' -shard/-store flags) have each persisted their grid partition.
func MergeTrialStores(dst TrialStore, dirs ...string) error {
	return experiments.MergeTrialStores(dst, dirs...)
}

// Claimed directions for HypothesisPredicate.Direction.
const (
	// HypothesisAbove claims the effect lies above the null boundary.
	HypothesisAbove = hypotheses.Above
	// HypothesisBelow claims the effect lies below the null boundary.
	HypothesisBelow = hypotheses.Below
)

// HypothesisCellMean extracts one (series, x-label) cell mean from a
// figure — the building block of hypothesis predicates. Missing cells are
// an error, never a silent zero.
func HypothesisCellMean(f Figure, series, x string) (float64, error) {
	return hypotheses.CellMean(f, series, x)
}

// HypothesisCellRatio is the ratio of two series' cell means at the same
// x-label (e.g. vanilla over pinned).
func HypothesisCellRatio(f Figure, numSeries, denSeries, x string) (float64, error) {
	return hypotheses.CellRatio(f, numSeries, denSeries, x)
}

// RunHypothesis evaluates one falsifiable claim: its scenario runs across
// adaptively-many seeds and the effect's BCa bootstrap interval decides
// Confirmed/Refuted/Inconclusive.
func RunHypothesis(h Hypothesis, cfg HypothesisConfig) (HypothesisFinding, error) {
	return hypotheses.Run(h, cfg)
}

// RunAllHypotheses evaluates every registered hypothesis in sorted-name
// order (the committed hypotheses/FINDINGS.md is this, rendered).
func RunAllHypotheses(cfg HypothesisConfig) ([]HypothesisFinding, error) {
	return hypotheses.RunAll(cfg)
}

// RegisterHypothesis adds a user-defined hypothesis to the name registry.
func RegisterHypothesis(h Hypothesis) error { return hypotheses.Register(h) }

// HypothesisNames lists every registered hypothesis, sorted.
func HypothesisNames() []string { return hypotheses.Names() }

// ParseCPUList parses Linux cpu-list syntax ("0-3,8,10-11").
func ParseCPUList(list string) (CPUSet, error) { return topology.ParseList(list) }

// FitOverheadModel regenerates the given figures (3..6) and fits the §VI
// analytic overhead law on their cells.
func FitOverheadModel(figs []int, cfg ExperimentConfig) (*OverheadModel, error) {
	return experiments.FitModel(figs, cfg)
}

// FitSamples fits the analytic law directly on measured samples (simulator
// output or a real testbed's numbers).
func FitSamples(samples []OverheadSample) (*OverheadModel, error) { return model.Fit(samples) }

// Isolation returns a platform's isolation level (§VI: overhead grows with
// it for CPU-bound work).
func Isolation(k PlatformKind) IsolationLevel { return model.Isolation(k) }

// RunProfile runs one deployment with the BCC-analog instruments attached
// (the paper's §III-A methodology) and returns the collector.
func RunProfile(spec ProfileSpec, cfg ExperimentConfig) (*TraceCollector, float64, error) {
	res, err := experiments.RunProfile(spec, cfg)
	if err != nil {
		return nil, 0, err
	}
	return res.Collector, res.MetricSecs, nil
}

// NewAdvisorServer builds the pinning-advisor daemon's handler around the
// given run template and admission bounds; serve it with net/http.
func NewAdvisorServer(o AdvisorOptions) *AdvisorServer { return serve.NewServer(o) }

// RunLoadtest hammers one serving endpoint with keep-alive connections and
// reports throughput plus measured latency percentiles.
func RunLoadtest(o LoadtestOptions) (LoadtestReport, error) { return loadtest.Run(o) }
