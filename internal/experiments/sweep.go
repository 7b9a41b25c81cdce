package experiments

// The sweep API generalizes the paper's fixed figures to arbitrary
// user-defined grids: any cross product of platforms × instance sizes (CHR
// points) × workload classes × memory sizes, run through the same parallel
// trial runner and the same substream seeding as the figures. Seeds are
// derived from a cell's *content* (platform, workload, cores, memory,
// repetition), not from its grid position, so two overlapping sweeps that
// share a Config.Memo re-simulate only the cells they do not have in
// common.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// bootResamples and bootConfidence are the bootstrap resample count and
// coverage behind every SweepCell interval.
const (
	bootResamples  = 1000
	bootConfidence = 0.95
)

// WorkloadNames are the workload classes a sweep can request, in Table I
// order plus the §VI network extension. Each accepts the aliases the driver
// registry lists (workload.CanonicalDriver).
var WorkloadNames = []string{"ffmpeg", "mpi", "wordpress", "cassandra", "microservice"}

// canonicalWorkload maps a workload name or alias to its canonical driver
// name. Everything downstream of the user-typed string — cell identity,
// seed derivation, memo keys — uses the canonical name, so "web" and
// "wordpress" describe the same cell and share simulations.
func canonicalWorkload(name string) (string, error) {
	return workload.CanonicalDriver(name)
}

// workloadByName builds a named workload class with its default driver
// parameters, applying the same Quick-mode scaling the corresponding
// figure uses.
func workloadByName(cfg Config, name string) (workload.Workload, error) {
	d, err := workload.NewDriver(name)
	if err != nil {
		return nil, err
	}
	if cfg.Quick {
		d = d.ScaleQuick()
	}
	return d, nil
}

// SweepSpec defines a sweep grid: the cross product of every non-empty
// axis. The zero value of an axis falls back to a sensible default so
// callers only name the axes they care about.
type SweepSpec struct {
	// Platforms are the (kind, mode) series to sweep; Cores on each entry
	// is ignored — the Cores axis supplies it. Default: the standard seven
	// series of the paper's figures.
	Platforms []platform.Spec
	// Cores are the instance sizes; each maps to a CHR point on the
	// configured host (CHR = cores / host CPUs). Default: Table II's sizes.
	Cores []int
	// Workloads are workload-class names (see WorkloadNames). Default:
	// ffmpeg.
	Workloads []string
	// MemGB are instance memory sizes; 0 means the Table II sizing of
	// 4 GB per core. Default: {0}.
	MemGB []int
	// Reps is the repetition count per cell (0 = 3, or 2 in Quick mode).
	Reps int
}

func (s SweepSpec) withDefaults(cfg Config) SweepSpec {
	if len(s.Platforms) == 0 {
		for _, sk := range platform.StandardSeries() {
			s.Platforms = append(s.Platforms, platform.Spec{Kind: sk.Kind, Mode: sk.Mode})
		}
	}
	if len(s.Cores) == 0 {
		for _, it := range InstanceTypes {
			s.Cores = append(s.Cores, it.Cores)
		}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []string{"ffmpeg"}
	}
	if len(s.MemGB) == 0 {
		s.MemGB = []int{0}
	}
	if s.Reps <= 0 {
		if cfg.Quick {
			s.Reps = 2
		} else {
			s.Reps = 3
		}
	}
	return s
}

// SweepCell is one fully-aggregated grid point of a sweep.
type SweepCell struct {
	// Platform is the series label ("Pinned CN", ...).
	Platform string
	Spec     platform.Spec
	Workload string
	Cores    int
	// MemGB is the resolved instance memory (the 4 GB/core default applied).
	MemGB int
	// CHR is the container-to-host core ratio of this point (§IV-A).
	CHR float64
	// Ratio is the overhead vs. the Vanilla BM cell with the same
	// (workload, cores, memory) coordinates, 0 when the sweep has none.
	Ratio float64
	// Summary aggregates the cell's repetitions.
	Summary stats.Summary
	// BootCI is the 95% percentile-bootstrap interval of the cell mean —
	// the distribution-free companion to Summary.CI95's Student-t interval,
	// meaningful at the small rep counts sweeps run with. The worker that
	// finishes the cell's last repetition computes it, or replays it from
	// the store's cells tier when an earlier run computed it from the same
	// values. Deterministic: the bootstrap seed is derived from the cell's
	// content, like the trial seeds, so the interval is identical at any
	// worker count and store warmth.
	BootCI stats.Interval
	// Breakdown is the overhead attribution of the last repetition.
	Breakdown sched.Breakdown
}

// SweepResult is a completed sweep: the resolved spec and one cell per grid
// point, in deterministic platforms-outermost order.
type SweepResult struct {
	Spec  SweepSpec
	Cells []SweepCell
}

// Sweep runs the grid through the parallel trial runner. Every trial is an
// independent simulation seeded by cell content, so the result is
// bit-identical for any Config.Executor and any memo state. Each cell is
// aggregated (Summary, BootCI, Breakdown) by the worker that finishes its
// last repetition, inside the trial fan-out. A cell with a repetition this
// call did not run — a Shard executor's run, which is for persisting
// trials, not for rendering — is left unaggregated (Summary.N == 0).
func Sweep(cfg Config, spec SweepSpec) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	spec = spec.withDefaults(cfg)
	plan, err := planSweep(cfg, spec)
	if err != nil {
		return nil, err
	}

	reps := spec.Reps
	// Aggregation reads each trial's Metric and each cell's last
	// Breakdown, so that is all the call keeps.
	metrics := make([]float64, len(plan)*reps)
	lastBreakdown := make([]sched.Breakdown, len(plan))
	cells := make([]trialCell, len(plan)) // this call only
	// pending counts each cell's repetitions still running. The worker
	// whose repetition takes it to zero aggregates the cell, so the
	// bootstrap intervals run on the executor's lanes instead of serially
	// after them. The atomic decrement orders every other repetition's
	// result write before that worker's reads.
	pending := make([]atomic.Int32, len(plan))
	for ci := range pending {
		pending[ci].Store(int32(reps))
	}
	err = forEachCellTrial(cfg, len(plan), reps, func(tc *TrialContext, ci, rep int) error {
		i := ci*reps + rep
		pc := &plan[ci]
		r, err := runTrial(tc, cfg, &cells[ci], pc.input(cfg, rep))
		if err != nil {
			return fmt.Errorf("sweep %s %s %dc/%dGB: %w",
				pc.cell.Platform, pc.cell.Workload, pc.cell.Cores, pc.cell.MemGB, err)
		}
		metrics[i] = r.Metric
		if rep == reps-1 {
			lastBreakdown[ci] = r.Breakdown
		}
		if pending[ci].Add(-1) == 0 {
			pc.cell.aggregate(cfg, metrics[ci*reps:(ci+1)*reps], lastBreakdown[ci])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &SweepResult{Spec: spec}
	for _, pc := range plan {
		out.Cells = append(out.Cells, pc.cell)
	}
	out.computeRatios()
	return out, nil
}

// cellPlan is one grid point of a sweep: its cell, to be aggregated, and
// the stack and workload list its trials run, resolved once and shared
// read-only by every repetition.
type cellPlan struct {
	cell  SweepCell
	stack platform.Stack
	ws    []workload.Workload
}

// planSweep resolves a defaulted spec into its grid, platforms outermost.
func planSweep(cfg Config, spec SweepSpec) ([]cellPlan, error) {
	var plan []cellPlan
	hostCPUs := cfg.Host.NumCPUs()
	for _, p := range spec.Platforms {
		for _, cores := range spec.Cores {
			if cores <= 0 {
				return nil, fmt.Errorf("experiments: sweep cores must be positive, got %d", cores)
			}
			for _, wname := range spec.Workloads {
				canon, err := canonicalWorkload(wname)
				if err != nil {
					return nil, err
				}
				w, err := workloadByName(cfg, canon)
				if err != nil {
					return nil, err
				}
				for _, mem := range spec.MemGB {
					memGB := mem
					if memGB <= 0 {
						memGB = 4 * cores
					}
					sp := platform.Spec{Kind: p.Kind, Mode: p.Mode, Cores: cores}
					plan = append(plan, cellPlan{
						cell: SweepCell{
							Platform: sp.Label(),
							Spec:     sp,
							Workload: canon,
							Cores:    cores,
							MemGB:    memGB,
							CHR:      float64(cores) / float64(hostCPUs),
						},
						stack: sp.Stack(),
						ws:    []workload.Workload{w},
					})
				}
			}
		}
	}
	return plan, nil
}

// input returns the trial input of repetition rep of the cell.
func (pc *cellPlan) input(cfg Config, rep int) trialInput {
	// Content-derived seed: a cell draws the same substream in every
	// sweep that contains it, which is what lets a shared memo skip it.
	seed := seedFor(cfg.Seed, 0x53_57, // "SW": keeps sweeps decorrelated from figures
		uint64(pc.cell.Spec.Kind), uint64(pc.cell.Spec.Mode),
		uint64(pc.cell.Cores), uint64(pc.cell.MemGB),
		workloadTag(pc.cell.Workload), uint64(rep))
	return trialInput{host: cfg.Host, stack: pc.stack,
		size: pc.cell.Cores, ws: pc.ws, memGB: pc.cell.MemGB, seed: seed}
}

// aggregate fills the cell's Summary and BootCI from its repetitions'
// metrics, in repetition order, and its Breakdown from the last
// repetition's. It only reads vals.
func (c *SweepCell) aggregate(cfg Config, vals []float64, last sched.Breakdown) {
	c.Breakdown = last
	c.Summary = stats.Summarize(vals)
	// Content-derived bootstrap seed, for the same reason the trial seeds
	// are content-derived: the same cell reports the same interval in
	// every sweep that contains it.
	bseed := seedFor(cfg.Seed, 0x42_53, // "BS": decorrelated from trial streams
		uint64(c.Spec.Kind), uint64(c.Spec.Mode),
		uint64(c.Cores), uint64(c.MemGB), workloadTag(c.Workload))
	c.BootCI = cellInterval(cfg.Memo, vals, int64(bseed&math.MaxInt64))
}

// cellInterval returns stats.BootstrapCI(vals, bootConfidence,
// bootResamples, seed): from the store's cells tier when it holds it,
// otherwise computed (and stored, when there is a store).
func cellInterval(memo TrialStore, vals []float64, seed int64) stats.Interval {
	compute := func() (stats.Interval, error) {
		return stats.BootstrapCI(vals, bootConfidence, bootResamples, seed), nil
	}
	if memo == nil {
		iv, _ := compute()
		return iv
	}
	iv, _ := memo.Cells().GetOrCompute(cellKey(vals, bootConfidence, bootResamples, seed), compute)
	return iv
}

// cellKey is the cells-tier key of BootstrapCI(vals, confidence,
// resamples, seed): the canonical encoding of every input the interval is
// a pure function of, values by their exact bits. A record is therefore
// correct for any cell, sweep or process whose values match.
func cellKey(vals []float64, confidence float64, resamples int, seed int64) uint64 {
	var e resultstore.Enc
	e.Version(cellSchema)
	e.I64(seed)
	e.Int(resamples)
	e.F64(confidence)
	e.Int(len(vals))
	for _, v := range vals {
		e.F64(v)
	}
	return e.Sum64()
}

// workloadTag folds a workload name into the seed derivation.
func workloadTag(name string) uint64 {
	h := uint64(0)
	for i := 0; i < len(name); i++ {
		h = h*131 + uint64(name[i])
	}
	return h
}

// computeRatios fills Ratio against the Vanilla BM cell sharing each cell's
// (workload, cores, memory) coordinates, when the sweep contains one and
// aggregated it.
func (r *SweepResult) computeRatios() {
	type coord struct {
		w     string
		cores int
		mem   int
	}
	base := map[coord]float64{}
	for _, c := range r.Cells {
		if c.Spec.Kind == platform.BM && c.Spec.Mode == platform.Vanilla && c.Summary.N > 0 {
			base[coord{c.Workload, c.Cores, c.MemGB}] = c.Summary.Mean
		}
	}
	if len(base) == 0 {
		return
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		if bm, ok := base[coord{c.Workload, c.Cores, c.MemGB}]; ok {
			c.Ratio = stats.Ratio(c.Summary.Mean, bm)
		}
	}
}

// Cell returns the sweep cell with the given coordinates (memGB 0 means the
// 4 GB/core default; wname accepts the same aliases as SweepSpec).
func (r *SweepResult) Cell(label, wname string, cores, memGB int) (SweepCell, bool) {
	canon, err := canonicalWorkload(wname)
	if err != nil {
		return SweepCell{}, false
	}
	if memGB <= 0 {
		memGB = 4 * cores
	}
	for _, c := range r.Cells {
		if c.Platform == label && c.Workload == canon &&
			c.Cores == cores && c.MemGB == memGB {
			return c, true
		}
	}
	return SweepCell{}, false
}

// RenderCSV writes one row per cell:
// platform,workload,cores,mem_gb,chr,mean_s,ci95_s,boot_lo_s,boot_hi_s,n,ratio.
func (r *SweepResult) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, "platform,workload,cores,mem_gb,chr,mean_s,ci95_s,boot_lo_s,boot_hi_s,n,ratio")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%s,%s,%d,%d,%.4f,%.6f,%.6f,%.6f,%.6f,%d,%.4f\n",
			c.Platform, c.Workload, c.Cores, c.MemGB, c.CHR,
			c.Summary.Mean, c.Summary.CI95, c.BootCI.Lo, c.BootCI.Hi, c.Summary.N, c.Ratio)
	}
}

// RenderJSON writes the sweep as indented JSON.
func (r *SweepResult) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderText writes an aligned table, one block per workload, series as
// rows and CHR points as columns.
func (r *SweepResult) RenderText(w io.Writer) {
	byWorkload := map[string][]SweepCell{}
	var worder []string
	for _, c := range r.Cells {
		if _, ok := byWorkload[c.Workload]; !ok {
			worder = append(worder, c.Workload)
		}
		byWorkload[c.Workload] = append(byWorkload[c.Workload], c)
	}
	for _, wname := range worder {
		cells := byWorkload[wname]
		fmt.Fprintf(w, "sweep — %s\n", wname)
		type col struct {
			cores, mem int
		}
		colSet := map[col]bool{}
		rowSet := map[string]bool{}
		var cols []col
		var rows []string
		for _, c := range cells {
			k := col{c.Cores, c.MemGB}
			if !colSet[k] {
				colSet[k] = true
				cols = append(cols, k)
			}
			if !rowSet[c.Platform] {
				rowSet[c.Platform] = true
				rows = append(rows, c.Platform)
			}
		}
		sort.Slice(cols, func(i, j int) bool {
			if cols[i].cores != cols[j].cores {
				return cols[i].cores < cols[j].cores
			}
			return cols[i].mem < cols[j].mem
		})
		fmt.Fprintf(w, "%-14s", "")
		for _, k := range cols {
			fmt.Fprintf(w, " %30s", fmt.Sprintf("%dc/%dGB", k.cores, k.mem))
		}
		fmt.Fprintln(w)
		for _, label := range rows {
			fmt.Fprintf(w, "%-14s", label)
			for _, k := range cols {
				var cell string
				for _, c := range cells {
					if c.Platform == label && c.Cores == k.cores && c.MemGB == k.mem {
						// mean ± t-interval, then the bootstrap interval in
						// brackets (they agree when reps are well-behaved;
						// divergence flags a skewed cell).
						cell = fmt.Sprintf("%.2f±%.2f [%.2f,%.2f]",
							c.Summary.Mean, c.Summary.CI95, c.BootCI.Lo, c.BootCI.Hi)
						if c.Ratio > 0 {
							cell += fmt.Sprintf(" (%.2fx)", c.Ratio)
						}
						break
					}
				}
				fmt.Fprintf(w, " %30s", cell)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}
