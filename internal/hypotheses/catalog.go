package hypotheses

// The built-in hypothesis catalog: the paper's headline claims plus
// cross-platform claims from the related studies (PAPERS.md: Agasizade et
// al.'s container-on-VM measurements, van Rijn & Rellermeyer's isolation-
// platform comparison), each encoded as a falsifiable statement over a
// registered scenario. Five run on the paper's own figure scenarios; two
// run on dedicated scenarios registered here (nesting depth beyond the
// paper's two levels, K-tenant co-location on an oversubscribed host) —
// the composable Stack model makes those one literal each. Six more test
// the model's own mechanism claims on ablation scenarios, where a series
// and its ablated twins run side by side on the paper's cells. Statuses are
// whatever the evidence says: a Refuted row is a finding, not a failure
// (the claim was falsifiable and the simulator falsified it), and the
// committed FINDINGS.md pins every status as a regression gate.

import (
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/platform"
)

func init() {
	registerScenarios()
	registerAblationScenarios()
	registerCatalog()
	registerAblationCatalog()
}

// registerScenarios adds the two dedicated hypothesis scenarios to the
// experiments registry, making them runnable (and inspectable) through the
// ordinary -scenario CLI surface too.
func registerScenarios() {
	// hyp-depth: nesting depth ladder. The paper stops at VMCN (depth 2);
	// this scenario extends the ladder to a VM-in-VM and a CN-in-VM-in-VM
	// so depth-compounding claims have a third point.
	experiments.MustRegisterScenario(experiments.Scenario{
		Name:  "hyp-depth",
		Title: "Hypothesis scenario: virtualization nesting depth ladder",
		Description: "Nesting ladder for the depth-compounding hypotheses: BM, VM, " +
			"VM-in-VM and CN-in-VM-in-VM running FFmpeg on a 4xLarge instance.",
		SeedTag:  []uint64{0xD0},
		Reps:     5,
		Baseline: "Vanilla BM",
		Workload: &experiments.WorkloadSpec{Driver: "ffmpeg"},
		Series: []experiments.ScenarioSeries{
			{Platform: &platform.Spec{Kind: platform.BM, Mode: platform.Vanilla}},
			{Platform: &platform.Spec{Kind: platform.VM, Mode: platform.Vanilla}},
			{Label: "Vanilla VM2", Stack: platform.Stack{Layers: []platform.Layer{
				{Kind: platform.LayerHost},
				{Kind: platform.LayerGuest},
				{Kind: platform.LayerGuest},
			}}},
			{Label: "Vanilla VM2CN", Stack: platform.Stack{Layers: []platform.Layer{
				{Kind: platform.LayerHost},
				{Kind: platform.LayerGuest},
				{Kind: platform.LayerGuest},
				{Kind: platform.LayerCgroup},
			}}},
		},
		Cells: []experiments.ScenarioCell{{Label: "4xLarge", Cores: 16, MemGB: 64}},
	})

	// hyp-tenants: K-tenant co-location on the 16-core host. Two tenants of
	// 8 cores fit exactly; four oversubscribe the host 2×, which wraps the
	// pinned tenants' cpusets onto shared cores while quota tenants float.
	tenants := func(k int, pinned bool) platform.Stack {
		ts := make([]platform.TenantSpec, k)
		for i := range ts {
			ts[i] = platform.TenantSpec{Cores: 8, Pinned: pinned}
		}
		return platform.Stack{
			Layers:  []platform.Layer{{Kind: platform.LayerHost}},
			Tenants: ts,
		}
	}
	experiments.MustRegisterScenario(experiments.Scenario{
		Name:  "hyp-tenants",
		Title: "Hypothesis scenario: K co-located tenants on an oversubscribed host",
		Description: "Co-location grid for the pinning-inversion hypothesis: K tenants " +
			"of 8 cores each on the 16-core host (K=2 fits, K=4 oversubscribes 2x), " +
			"with pinned disjoint-then-wrapping cpusets vs floating CFS quotas.",
		XTitle:   "Tenant isolation",
		SeedTag:  []uint64{0xC0},
		Reps:     5,
		Workload: &experiments.WorkloadSpec{Driver: "ffmpeg"},
		Series: []experiments.ScenarioSeries{
			{Label: "Pinned x2", Stack: tenants(2, true)},
			{Label: "Quota x2", Stack: tenants(2, false)},
			{Label: "Pinned x4", Stack: tenants(4, true)},
			{Label: "Quota x4", Stack: tenants(4, false)},
		},
		Cells: []experiments.ScenarioCell{{Label: "8-core tenants", Host: "small16", Cores: 8}},
	})
}

// registerCatalog registers the built-in hypotheses.
func registerCatalog() {
	// H1 — the paper's premise (§IV, Fig 3): virtualization costs real
	// execution time on a CPU-bound workload.
	MustRegister(Hypothesis{
		Name:     "vm-overhead-positive",
		Claim:    "A vanilla VM adds measurable execution-time overhead over bare metal for a CPU-bound workload.",
		Source:   "Paper §IV Fig 3",
		Scenario: "fig3",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				return CellRatio(f, "Vanilla VM", "Vanilla BM", "4xLarge")
			},
			Detail:    "mean(Vanilla VM) / mean(Vanilla BM) at 4xLarge on fig3",
			Null:      1,
			Direction: Above,
		},
	})

	// H2 — the paper's headline (title claim): pinning recovers part of
	// virtualization's overhead.
	MustRegister(Hypothesis{
		Name:     "pinning-recovers-vm-overhead",
		Claim:    "CPU pinning recovers part of the VM's overhead: a pinned VM runs measurably faster than a vanilla VM.",
		Source:   "Paper §V (headline claim)",
		Scenario: "fig3",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				return CellRatio(f, "Vanilla VM", "Pinned VM", "4xLarge")
			},
			Detail:    "mean(Vanilla VM) / mean(Pinned VM) at 4xLarge on fig3",
			Null:      1,
			Direction: Above,
		},
	})

	// H3 — the VM-vs-CN asymmetry: pinning buys more on the hypervisor
	// platform than on the container platform (Agasizade et al. report the
	// container's baseline overhead is already near-native).
	MustRegister(Hypothesis{
		Name:     "pinning-helps-vm-more-than-cn",
		Claim:    "Pinning's VM penalty reduction exceeds its CN reduction: the vanilla/pinned ratio is larger for VMs than for containers.",
		Source:   "Paper §V Figs 3-4; Agasizade et al. (PAPERS.md)",
		Scenario: "fig3",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				vm, err := CellRatio(f, "Vanilla VM", "Pinned VM", "4xLarge")
				if err != nil {
					return 0, err
				}
				cn, err := CellRatio(f, "Vanilla CN", "Pinned CN", "4xLarge")
				if err != nil {
					return 0, err
				}
				return vm - cn, nil
			},
			Detail:    "(VanVM/PinVM) − (VanCN/PinCN) at 4xLarge on fig3",
			Null:      0,
			Direction: Above,
		},
	})

	// H4 — nesting super-additivity on the paper's own grid: the VMCN
	// overhead exceeds the sum of its parts (van Rijn & Rellermeyer's
	// nested-isolation comparison motivates the decomposition).
	MustRegister(Hypothesis{
		Name:     "nested-vmcn-superadditive",
		Claim:    "Nested VMCN cost compounds super-additively: its overhead ratio exceeds the VM and CN overheads stacked additively.",
		Source:   "Paper §IV Fig 3; van Rijn & Rellermeyer (PAPERS.md)",
		Scenario: "fig3",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				vmcn, err := CellRatio(f, "Vanilla VMCN", "Vanilla BM", "4xLarge")
				if err != nil {
					return 0, err
				}
				vm, err := CellRatio(f, "Vanilla VM", "Vanilla BM", "4xLarge")
				if err != nil {
					return 0, err
				}
				cn, err := CellRatio(f, "Vanilla CN", "Vanilla BM", "4xLarge")
				if err != nil {
					return 0, err
				}
				// Additive stacking predicts (vm−1)+(cn−1) excess; the effect
				// is VMCN's excess beyond that.
				return vmcn - (vm + cn - 1), nil
			},
			Detail:    "VMCN/BM − (VM/BM + CN/BM − 1) at 4xLarge on fig3",
			Null:      0,
			Direction: Above,
		},
	})

	// H5 — the CHR mechanism (§IV-A, Fig 7): the vanilla container's
	// penalty appears when the container spans most of the host, so
	// pinning's benefit is larger at CHR=1 than at CHR=0.14.
	// The 0.01 null is a practical-significance margin: the claim is a
	// ratio-point gap a deployment would notice, so an effect that is zero
	// to numerical noise must refute it rather than ride the sign bit.
	MustRegister(Hypothesis{
		Name:     "chr-governs-pinning-benefit",
		Claim:    "Pinning's container benefit grows with CHR: the vanilla/pinned ratio at CHR=1 (16-core host) exceeds the ratio at CHR=0.14 (112-core host) by more than one ratio point.",
		Source:   "Paper §IV-A Fig 7",
		Scenario: "fig7",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				high, err := CellRatio(f, "Vanilla CN", "Pinned CN", "16 cores")
				if err != nil {
					return 0, err
				}
				low, err := CellRatio(f, "Vanilla CN", "Pinned CN", "112 cores")
				if err != nil {
					return 0, err
				}
				return high - low, nil
			},
			Detail:    "(VanCN/PinCN @16-core host) − (VanCN/PinCN @112-core host) on fig7",
			Null:      0.01,
			Direction: Above,
		},
	})

	// H6 — depth ladder beyond the paper: a second hypervisor level costs
	// more again (the depth trend van Rijn & Rellermeyer chart for nested
	// isolation platforms).
	MustRegister(Hypothesis{
		Name:     "nesting-depth-compounds",
		Claim:    "Each hypervisor level compounds the cost: a VM-in-VM runs measurably slower than a single VM.",
		Source:   "van Rijn & Rellermeyer (PAPERS.md); paper §VI future work",
		Scenario: "hyp-depth",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				return CellRatio(f, "Vanilla VM2", "Vanilla VM", "4xLarge")
			},
			Detail:    "mean(VM-in-VM) / mean(VM) at 4xLarge on hyp-depth",
			Null:      1,
			Direction: Above,
		},
	})

	// H7 — the co-location inversion: pinning's advantage at exact fit
	// (K=2, disjoint cpusets) erodes or inverts once the host is
	// oversubscribed (K=4, wrapped cpusets vs work-conserving quotas).
	MustRegister(Hypothesis{
		Name:     "oversubscription-inverts-pinning",
		Claim:    "Pinning's co-location benefit inverts under oversubscription: pinned-vs-quota tenants do relatively worse (by more than two ratio points) at K=4 (2x oversubscribed) than at K=2 (exact fit).",
		Source:   "Paper §V discussion; Agasizade et al. (PAPERS.md)",
		Scenario: "hyp-tenants",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				over, err := CellRatio(f, "Pinned x4", "Quota x4", "8-core tenants")
				if err != nil {
					return 0, err
				}
				fit, err := CellRatio(f, "Pinned x2", "Quota x2", "8-core tenants")
				if err != nil {
					return 0, err
				}
				return over - fit, nil
			},
			Detail:    "(Pin/Quota @K=4) − (Pin/Quota @K=2) on hyp-tenants",
			Null:      0.02,
			Direction: Above,
		},
	})
}

// plain and twin build the series of the ablation scenarios: a canned
// platform, and the same platform with mechanisms switched off, labelled
// by what it lacks (e.g. "Pinned CN [numa]").
func plain(kind platform.Kind, mode platform.Mode) experiments.ScenarioSeries {
	return experiments.ScenarioSeries{Platform: &platform.Spec{Kind: kind, Mode: mode}}
}

func twin(kind platform.Kind, mode platform.Mode, a machine.Ablation, tag string) experiments.ScenarioSeries {
	spec := platform.Spec{Kind: kind, Mode: mode}
	return experiments.ScenarioSeries{Label: spec.Label() + " [" + tag + "]", Platform: &spec, Ablate: a}
}

// registerAblationScenarios adds the mechanism-ablation scenarios: each
// holds unablated series and their ablated twins on the paper cells a
// mechanism claim is about, so one figure carries both arms of the
// comparison. Twins sit at their own series index and so draw their own
// seeds.
func registerAblationScenarios() {
	experiments.MustRegisterScenario(experiments.Scenario{
		Name:  "abl-fig7",
		Title: "Ablation scenario: what makes Fig 7's host-size gap",
		Description: "Fig 7's pinned 4xLarge container on the 16- and 112-core hosts, " +
			"unablated and without the cgroup accounting walk or the NUMA interleave penalty.",
		XTitle:   "Hosts with Different Number of Cores",
		SeedTag:  []uint64{0xA7},
		Reps:     5,
		Workload: &experiments.WorkloadSpec{Driver: "ffmpeg"},
		Series: []experiments.ScenarioSeries{
			plain(platform.CN, platform.Pinned),
			twin(platform.CN, platform.Pinned, machine.AblateAcctWalk, "acct-walk"),
			twin(platform.CN, platform.Pinned, machine.AblateNUMA, "numa"),
		},
		Cells: []experiments.ScenarioCell{
			{Label: "16 cores", Host: "small16", Cores: 16, MemGB: 64},
			{Label: "112 cores", Host: "paper", Cores: 16, MemGB: 64},
		},
	})
	experiments.MustRegisterScenario(experiments.Scenario{
		Name:  "abl-fig6",
		Title: "Ablation scenario: IRQ affinity and churn working set in Fig 6",
		Description: "A WordPress 2xLarge reference plus Fig 6's Cassandra cells (xLarge, " +
			"2xLarge), with bare metal and pinned CN also run without IRQ distance costs, " +
			"and vanilla CN without the churn working-set factor (bare metal has no " +
			"cgroup, so that factor cannot reach it).",
		SeedTag:  []uint64{0xA6},
		Reps:     5,
		Baseline: "Vanilla BM",
		Workload: &experiments.WorkloadSpec{Driver: "cassandra"},
		Series: []experiments.ScenarioSeries{
			plain(platform.BM, platform.Vanilla),
			plain(platform.CN, platform.Pinned),
			plain(platform.CN, platform.Vanilla),
			twin(platform.BM, platform.Vanilla, machine.AblateIRQDistance, "irq-distance"),
			twin(platform.CN, platform.Pinned, machine.AblateIRQDistance, "irq-distance"),
			twin(platform.CN, platform.Vanilla, machine.AblateChurnWorkingSet, "churn-ws"),
		},
		// The WordPress reference comes first: the out-of-range rule compares
		// each column's baseline with the next one's, and a Cassandra
		// column followed by a far shorter WordPress one would trip it.
		Cells: []experiments.ScenarioCell{
			{Label: "2xLarge WordPress", Cores: 8, MemGB: 32,
				Workload: &experiments.WorkloadSpec{Driver: "wordpress"}},
			{Label: "xLarge", Cores: 4, MemGB: 16},
			{Label: "2xLarge", Cores: 8, MemGB: 32},
		},
	})
	experiments.MustRegisterScenario(experiments.Scenario{
		Name:  "abl-fig4",
		Title: "Ablation scenario: the hypervisor message fast path in Fig 4",
		Description: "Fig 4's MPI Search at 16xLarge on both containers and a pinned VM, " +
			"and on the pinned VM without the hypervisor's shared-memory message fast path.",
		SeedTag:  []uint64{0xA4},
		Reps:     5,
		Baseline: "Vanilla BM",
		Workload: &experiments.WorkloadSpec{Driver: "mpi"},
		Series: []experiments.ScenarioSeries{
			plain(platform.BM, platform.Vanilla),
			plain(platform.CN, platform.Vanilla),
			plain(platform.CN, platform.Pinned),
			plain(platform.VM, platform.Pinned),
			twin(platform.VM, platform.Pinned, machine.AblateVMFastpath, "vm-fastpath"),
		},
		Cells: []experiments.ScenarioCell{{Label: "16xLarge", Cores: 64, MemGB: 256}},
	})
	experiments.MustRegisterScenario(experiments.Scenario{
		Name:  "abl-fig3",
		Title: "Ablation scenario: cache locality and Fig 3's vanilla-container penalty",
		Description: "Fig 3's FFmpeg on a Large container, vanilla and pinned, unablated " +
			"and with every migration cache-refill penalty zeroed.",
		SeedTag:  []uint64{0xA3},
		Reps:     5,
		Workload: &experiments.WorkloadSpec{Driver: "ffmpeg"},
		Series: []experiments.ScenarioSeries{
			plain(platform.CN, platform.Vanilla),
			plain(platform.CN, platform.Pinned),
			twin(platform.CN, platform.Vanilla, machine.AblateCacheLocality, "cache-locality"),
			twin(platform.CN, platform.Pinned, machine.AblateCacheLocality, "cache-locality"),
		},
		Cells: []experiments.ScenarioCell{{Label: "Large", Cores: 2, MemGB: 8}},
	})
}

// hostGap is a series' 112-core over 16-core mean on abl-fig7: Fig 7's
// host-size effect for one container.
func hostGap(f experiments.Figure, series string) (float64, error) {
	big, err := CellMean(f, series, "112 cores")
	if err != nil {
		return 0, err
	}
	small, err := CellMean(f, series, "16 cores")
	if err != nil {
		return 0, err
	}
	return big / small, nil
}

// closedShare is the share of an excess that an ablation removes: with
// the full effect at full, the ablated one at ablated and the level the
// claim says it falls toward at floor, (full − ablated) / (full − floor).
func closedShare(full, ablated, floor float64) float64 {
	return (full - ablated) / (full - floor)
}

// registerAblationCatalog registers one hypothesis per mechanism claim the
// model's ablations make. The half-way margins (Null 0.5) encode "mostly":
// an ablation that removes a sliver of an effect does not confirm that the
// mechanism is what makes it.
func registerAblationCatalog() {
	MustRegister(Hypothesis{
		Name:     "acct-walk-in-host-size-gap",
		Claim:    "Part of Fig 7's host-size gap is the per-host-CPU cgroup accounting walk: removing it narrows a pinned container's 112-core/16-core time ratio.",
		Source:   "Paper §IV-A Fig 7; model ablation acct-walk",
		Scenario: "abl-fig7",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				full, err := hostGap(f, "Pinned CN")
				if err != nil {
					return 0, err
				}
				ablated, err := hostGap(f, "Pinned CN [acct-walk]")
				return full - ablated, err
			},
			Detail:    "(PinCN 112/16) − (PinCN[acct-walk] 112/16) on abl-fig7",
			Null:      0,
			Direction: Above,
		},
	})

	MustRegister(Hypothesis{
		Name:     "numa-makes-host-size-gap",
		Claim:    "Fig 7's host-size gap is mostly memory interleave: removing the NUMA penalty takes away more than half of a pinned container's 112-core/16-core excess.",
		Source:   "Paper §IV-A Fig 7; model ablation numa",
		Scenario: "abl-fig7",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				full, err := hostGap(f, "Pinned CN")
				if err != nil {
					return 0, err
				}
				ablated, err := hostGap(f, "Pinned CN [numa]")
				return closedShare(full, ablated, 1), err
			},
			Detail:    "share of (PinCN 112/16 − 1) that numa ablation removes, on abl-fig7",
			Null:      0.5,
			Direction: Above,
		},
	})

	MustRegister(Hypothesis{
		Name:     "irq-affinity-gives-pinned-cn-edge",
		Claim:    "A pinned container's Cassandra edge over bare metal is IRQ affinity: with IRQ distance costs flattened, pinned CN at xLarge is slower than bare metal.",
		Source:   "Paper §IV Fig 6; model ablation irq-distance",
		Scenario: "abl-fig6",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				return CellRatio(f, "Pinned CN [irq-distance]", "Vanilla BM [irq-distance]", "xLarge")
			},
			Detail:    "PinCN[irq-distance] / BM[irq-distance] at xLarge on abl-fig6",
			Null:      1,
			Direction: Above,
		},
	})

	MustRegister(Hypothesis{
		Name:     "churn-ws-separates-ultra-io",
		Claim:    "The churn working-set term is what separates ultra-IO Cassandra from IO-bound WordPress: forcing it to 1 removes more than half of the gap between their vanilla-CN overhead ratios at 2xLarge.",
		Source:   "Paper §IV Figs 5-6; model ablation churn-ws",
		Scenario: "abl-fig6",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				full, err := CellRatio(f, "Vanilla CN", "Vanilla BM", "2xLarge")
				if err != nil {
					return 0, err
				}
				ablated, err := CellRatio(f, "Vanilla CN [churn-ws]", "Vanilla BM", "2xLarge")
				if err != nil {
					return 0, err
				}
				web, err := CellRatio(f, "Vanilla CN", "Vanilla BM", "2xLarge WordPress")
				return closedShare(full, ablated, web), err
			},
			Detail:    "share of (VanCN/BM Cassandra − VanCN/BM WordPress) at 2xLarge that churn-ws ablation of VanCN removes, on abl-fig6",
			Null:      0.5,
			Direction: Above,
		},
	})

	MustRegister(Hypothesis{
		Name:     "vm-fastpath-gives-mpi-lead",
		Claim:    "The VM's MPI lead over containers is the hypervisor's shared-memory message fast path: without it, a pinned VM at 16xLarge is slower than the faster container.",
		Source:   "Paper §IV Fig 4; model ablation vm-fastpath",
		Scenario: "abl-fig4",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				vm, err := CellMean(f, "Pinned VM [vm-fastpath]", "16xLarge")
				if err != nil {
					return 0, err
				}
				van, err := CellMean(f, "Vanilla CN", "16xLarge")
				if err != nil {
					return 0, err
				}
				pin, err := CellMean(f, "Pinned CN", "16xLarge")
				return vm / min(van, pin), err
			},
			Detail:    "PinVM[vm-fastpath] / min(VanCN, PinCN) at 16xLarge on abl-fig4",
			Null:      1,
			Direction: Above,
		},
	})

	MustRegister(Hypothesis{
		Name:     "cache-locality-separates-cn-modes",
		Claim:    "Migration cache refill is what separates vanilla from pinned containers on small instances: with its penalties zeroed, more than half of vanilla CN's excess over pinned CN at Large disappears.",
		Source:   "Paper §IV Fig 3; model ablation cache-locality",
		Scenario: "abl-fig3",
		Predicate: Predicate{
			Effect: func(f experiments.Figure) (float64, error) {
				full, err := CellRatio(f, "Vanilla CN", "Pinned CN", "Large")
				if err != nil {
					return 0, err
				}
				ablated, err := CellRatio(f, "Vanilla CN [cache-locality]", "Pinned CN [cache-locality]", "Large")
				return closedShare(full, ablated, 1), err
			},
			Detail:    "share of (VanCN/PinCN − 1) at Large that cache-locality ablation removes, on abl-fig3",
			Null:      0.5,
			Direction: Above,
		},
	})
}
