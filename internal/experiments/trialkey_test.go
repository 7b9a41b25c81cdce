package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestTrialKeyPinnedLiteral pins the durable key of a canned trial to a
// literal value. Durable stores survive processes, so the key encoding is
// an on-disk schema: if this test fails, the encoding changed — either
// revert the accidental change, or (for an intentional one) bump
// trialKeySchema and update the literals, accepting that existing stores
// recompute.
func TestTrialKeyPinnedLiteral(t *testing.T) {
	cfg := Config{Seed: 42}.withDefaults()
	stack := platform.Spec{Kind: platform.CN, Mode: platform.Pinned, Cores: 4}.Stack()
	w := workload.DefaultTranscode()
	got := trialKey(cfg, trialInput{cfg.Host, stack, 4, []workload.Workload{w}, 16, 7, 0})
	const want = uint64(0x9f368ed2b23a1d51)
	if got != want {
		t.Fatalf("trialKey = %#016x, want %#016x — the durable key encoding changed; bump trialKeySchema if intentional", got, want)
	}

	// A second literal over a different driver/stack exercises the
	// multi-field walks (NoSQL has the widest struct).
	nos := workload.DefaultNoSQL()
	vm := platform.Spec{Kind: platform.VMCN, Mode: platform.Vanilla, Cores: 8}.Stack()
	got2 := trialKey(cfg, trialInput{cfg.Host, vm, 8, []workload.Workload{nos}, 32, 9, 0})
	const want2 = uint64(0x541a453fbcf9355a)
	if got2 != want2 {
		t.Fatalf("trialKey(nosql) = %#016x, want %#016x — the durable key encoding changed; bump trialKeySchema if intentional", got2, want2)
	}

	// Each host ablation bit keys as it did when ablations were a run-wide
	// setting rather than series data, so stores of ablated runs keep
	// hitting.
	for a, want := range map[machine.Ablation]uint64{
		machine.AblateAcctWalk:        0xf9b71525bc25343d,
		machine.AblateNUMA:            0x18b1dc2ec7147e5e,
		machine.AblateIRQDistance:     0x5ed131f88578c198,
		machine.AblateChurnWorkingSet: 0xe2e615d459bb9914,
		machine.AblateCacheLocality:   0xeb0fdd8c0241480c,
	} {
		if got := trialKey(cfg, trialInput{cfg.Host, stack, 4, []workload.Workload{w}, 16, 7, a}); got != want {
			t.Errorf("trialKey(ablate %#x) = %#016x, want %#016x — the ablated key encoding changed", a, got, want)
		}
	}
}

// TestTrialKeySensitivity: every input the key claims to cover must
// actually move it.
func TestTrialKeySensitivity(t *testing.T) {
	cfg := Config{Seed: 42}.withDefaults()
	stack := platform.Spec{Kind: platform.CN, Mode: platform.Pinned, Cores: 4}.Stack()
	w := workload.DefaultTranscode()
	in := trialInput{cfg.Host, stack, 4, []workload.Workload{w}, 16, 7, 0}
	base := trialKey(cfg, in)
	for name, mut := range map[string]func(*trialInput){
		"seed":           func(in *trialInput) { in.seed = 8 },
		"size":           func(in *trialInput) { in.size = 8 },
		"memGB":          func(in *trialInput) { in.memGB = 32 },
		"tenant count":   func(in *trialInput) { in.ws = []workload.Workload{w, w} },
		"workload field": func(in *trialInput) { w2 := w; w2.Threads++; in.ws = []workload.Workload{w2} },
	} {
		alt := in
		mut(&alt)
		if trialKey(cfg, alt) == base {
			t.Errorf("%s change did not move the key", name)
		}
	}
	// Each ablation bit moves the key, and distinct masks never share one.
	// AblateVMFastpath reaches the key through the hypervisor walk as well.
	keys := map[uint64]machine.Ablation{base: 0}
	for _, a := range []machine.Ablation{machine.AblateAcctWalk, machine.AblateNUMA, machine.AblateIRQDistance,
		machine.AblateChurnWorkingSet, machine.AblateCacheLocality, machine.AblateVMFastpath,
		machine.AblateAcctWalk | machine.AblateNUMA} {
		alt := in
		alt.ablate = a
		k := trialKey(cfg, alt)
		if prev, dup := keys[k]; dup {
			t.Fatalf("ablation %#x has the same key as ablation %#x", a, prev)
		}
		keys[k] = a
	}
}

// pinnedFields are the struct field walks the canonical encoders cover.
// When a struct gains, loses, renames or reorders a field, this test fails
// until both the matching append/codec function and the relevant schema
// version (trialKeySchema / trialRecordSchema) are updated — the
// discipline that keeps durable stores from silently replaying results
// computed under a different model.
var pinnedFields = map[string]struct {
	v    any
	want string
}{
	"hypervisor.Params": {hypervisor.Params{},
		"CPUTax,IOScale,WanderIOScale,VirtioExtra,VirtioMiss,VirtioMissProb,GuestMsgSyncCost,GuestMsgCopyScale,GuestNSCopyScale,GuestCNIOScale,GuestLineScale,GuestCacheScale,GuestWakeExtra,WanderStallRate,WanderStallCost,NestedSwitchCost,NestedSwitchMax"},
	"workload.Transcode": {workload.Transcode{},
		"TotalWork,Threads,HeavyThreads,LightWorkFrac,SerialFrac,PerProcessOverhead,Segments"},
	"workload.MPISearch": {workload.MPISearch{},
		"Ranks,Rounds,TotalCompute,DataPerRound,ScatterBytes,AllreduceEvery"},
	"workload.Web": {workload.Web{},
		"Requests,Workers,ParseCPU,RenderCPU,WriteCPU,SocketLatency,DiskMissProb"},
	"workload.NoSQL": {workload.NoSQL{},
		"Threads,Ops,WriteFrac,Window,OpCPU,SocketLatency,DatasetGB,CacheEff,MinMiss,ReadMissIOs,CompactProb,ThrashMemGB,ThrashIOScale,ThrashCPUScale"},
	"workload.Microservice": {workload.Microservice{},
		"Requests,Frontends,Backends,ParseCPU,RespondCPU,HandleCPU,SocketLatency,RPCBytes"},
	"sched.Breakdown": {sched.Breakdown{},
		"UsefulWork,SwitchTime,MigrationTime,AcctTime,ChurnTime,ThrottleTime,IRQTime,VirtioTime,MsgTime,NestedTime,WanderTime,Switches,Migrations,Steals,Wakeups,IOs,Messages,Throttles"},
	// These three reach the key through their string Fingerprint() rather
	// than an append function; a new field on any of them must be folded
	// into the matching Fingerprint (and trialKeySchema bumped) or a warm
	// store would replay results across configs that now differ.
	"platform.Stack":      {platform.Stack{}, "Layers,Tenants"},
	"platform.Layer":      {platform.Layer{}, "Kind,Cores,Pinned,Limit"},
	"platform.TenantSpec": {platform.TenantSpec{}, "Name,Cores,Pinned,NoCgroup"},
	"topology.Topology": {topology.Topology{},
		"Name,Sockets,CoresPerSocket,ThreadsPerCore,LLCMB,ClockGHz,idx"},
}

func TestCanonicalEncodersCoverEveryField(t *testing.T) {
	for name, p := range pinnedFields {
		typ := reflect.TypeOf(p.v)
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			fields = append(fields, typ.Field(i).Name)
		}
		if got := strings.Join(fields, ","); got != p.want {
			t.Errorf("%s fields changed:\n got  %s\n want %s\nupdate the canonical encoder (trialkey.go / trialstore.go) and bump its schema version, then re-pin this list",
				name, got, p.want)
		}
	}
}

// keyRecorder is a trial store that holds every key: it records each key a
// run asks for and answers it with a canned result, so a run goes through
// every trial's key without simulating any.
type keyRecorder struct {
	mu   sync.Mutex
	keys []uint64
}

func (k *keyRecorder) Get(key uint64) (TrialResult, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.keys = append(k.keys, key)
	return TrialResult{Metric: 1}, true
}
func (k *keyRecorder) Put(uint64, TrialResult) {}
func (k *keyRecorder) GetOrCompute(key uint64, _ func() (TrialResult, error)) (TrialResult, error) {
	r, _ := k.Get(key)
	return r, nil
}
func (k *keyRecorder) Stats() resultstore.Stats { return resultstore.Stats{} }
func (k *keyRecorder) Close() error             { return nil }

// checkCellKeys fails unless the keys a run asked its store for are, as a
// multiset, the trialKey of every one of its trials.
func checkCellKeys(t *testing.T, name string, got []uint64, want []uint64) {
	t.Helper()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s: the per-cell key path asked for %d keys that differ from the %d trialKey values", name, len(got), len(want))
	}
}

// TestCellKeysMatchTrialKey: the key a repetition builds from its cell's
// shared tail (trialCell.key) is trialKey of its own input, for every
// trial of every registered scenario at both scales, plain and ablated,
// and of the
// benchmark's sweep grid — so the cells group only trials whose inputs
// differ in the seed alone, and existing durable stores keep hitting.
func TestCellKeysMatchTrialKey(t *testing.T) {
	// Each scenario also runs with its last series ablated, so ablated key
	// tails are covered too.
	var scenarios []Scenario
	for _, sc := range Scenarios() {
		ab := sc.detach()
		ab.Name += "-ablated"
		ab.Series[len(ab.Series)-1].Ablate = machine.AblateNUMA | machine.AblateVMFastpath
		scenarios = append(scenarios, sc, ab)
	}
	for _, quick := range []bool{true, false} {
		for _, sc := range scenarios {
			rec := new(keyRecorder)
			cfg := Config{Seed: 42, Quick: quick, Memo: rec}.withDefaults()
			if _, err := RunScenario(cfg, sc); err != nil {
				t.Fatalf("%s (quick %v): %v", sc.Name, quick, err)
			}
			sc := sc.withDefaults()
			g, err := planScenario(cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for i := range g.seeds {
				want = append(want, trialKey(cfg, g.input(i)))
			}
			checkCellKeys(t, fmt.Sprintf("%s (quick %v)", sc.Name, quick), rec.keys, want)
		}
	}

	rec := new(keyRecorder)
	cfg := Config{Seed: 42, Quick: true, Memo: rec}.withDefaults()
	spec := SweepSpec{Workloads: []string{"ffmpeg", "wordpress", "microservice"}, Reps: 50}
	if _, err := Sweep(cfg, spec); err != nil {
		t.Fatal(err)
	}
	plan, err := planSweep(cfg, spec.withDefaults(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for ci := range plan {
		for rep := range spec.Reps {
			want = append(want, trialKey(cfg, plan[ci].input(cfg, rep)))
		}
	}
	if len(want) != 6300 {
		t.Fatalf("benchmark sweep grid has %d trials, want 6300", len(want))
	}
	checkCellKeys(t, "benchmark sweep", rec.keys, want)
}

// TestWarmHitKeyAllocFree: a warm hit builds its key from the cell's
// shared tail without allocating, and a warm runTrial with a worker's
// context hands the store the context's bound miss callback, so it
// allocates nothing either.
func TestWarmHitKeyAllocFree(t *testing.T) {
	cfg := Config{Seed: 42, Memo: NewTrialMemo()}.withDefaults()
	stack := platform.Spec{Kind: platform.VMCN, Mode: platform.Vanilla, Cores: 8}.Stack()
	in := trialInput{cfg.Host, stack, 8, []workload.Workload{workload.DefaultNoSQL()}, 32, 9, machine.AblateNUMA}
	cfg.Memo.Put(trialKey(cfg, in), TrialResult{Metric: 3})
	cell := new(trialCell)
	if r, err := runTrial(nil, cfg, cell, in); err != nil || r.Metric != 3 {
		t.Fatalf("warm runTrial = %v, %v; want the stored result", r, err)
	}
	if avg := testing.AllocsPerRun(100, func() { cell.key(cfg, in) }); avg != 0 {
		t.Fatalf("trialCell.key made %v allocations per warm key, want 0", avg)
	}
	tc := new(TrialContext)
	if avg := testing.AllocsPerRun(100, func() { runTrial(tc, cfg, cell, in) }); avg != 0 {
		t.Fatalf("warm runTrial made %v allocations, want 0", avg)
	}
	if hits := cfg.Memo.Stats().Hits; hits != 1+101 {
		t.Fatalf("store counted %d hits, want every warm call to hit", hits)
	}
}
