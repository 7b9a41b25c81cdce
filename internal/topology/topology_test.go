package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCPUSetBasics(t *testing.T) {
	var s CPUSet
	if !s.IsEmpty() || s.Count() != 0 || s.First() != -1 {
		t.Fatal("zero value must be the empty set")
	}
	s.Add(3)
	s.Add(100)
	s.Add(3)
	if s.Count() != 2 || !s.Contains(3) || !s.Contains(100) || s.Contains(4) {
		t.Fatalf("add/contains broken: %v", s)
	}
	s.Remove(3)
	if s.Contains(3) || s.Count() != 1 {
		t.Fatal("remove broken")
	}
	if s.Contains(-1) {
		t.Fatal("negative membership")
	}
	// Contains is total: any out-of-range id is a non-member, never a
	// crash (ids far past MaxCPUs once overflowed the high-word hint).
	for _, cpu := range []int{MaxCPUs, 8191, 8192, 16384, 1 << 30} {
		if s.Contains(cpu) {
			t.Fatalf("Contains(%d) on out-of-range id", cpu)
		}
	}
}

func TestCPUSetAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(MaxCPUs) should panic")
		}
	}()
	var s CPUSet
	s.Add(MaxCPUs)
}

// Remove mirrors Add: out-of-range ids are model bugs and must not pass
// silently as no-ops.
func TestCPUSetRemoveOutOfRangePanics(t *testing.T) {
	for _, cpu := range []int{-1, MaxCPUs} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Remove(%d) should panic", cpu)
				}
			}()
			var s CPUSet
			s.Remove(cpu)
		}()
	}
}

// The high-word hint is an optimization detail that must never leak into
// semantics: sets built by different operation orders (and so carrying
// different hints) must still compare Equal and agree on every query.
func TestCPUSetHintInvariance(t *testing.T) {
	a := NewCPUSet(3)
	b := NewCPUSet(3, 900)
	b.Remove(900) // b's hint stays wide; contents equal a
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("hint leaked into Equal")
	}
	if b.Count() != 1 || b.First() != 3 || b.Next(3) != -1 {
		t.Fatalf("wide-hint set misbehaves: %v", b)
	}
	if got := a.Union(b); !got.Equal(NewCPUSet(3)) {
		t.Fatalf("union = %v", got)
	}
	if got := b.Difference(a); !got.IsEmpty() {
		t.Fatalf("difference = %v", got)
	}
	if got := b.Intersect(a); !got.Equal(a) {
		t.Fatalf("intersect = %v", got)
	}
	if !b.IsSubsetOf(a) || !a.IsSubsetOf(b) {
		t.Fatal("subset with differing hints broken")
	}
	if b.String() != "3" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestCPUSetAlgebra(t *testing.T) {
	a := NewCPUSet(0, 1, 2, 3)
	b := NewCPUSet(2, 3, 4, 5)
	if got := a.Union(b).Count(); got != 6 {
		t.Fatalf("union count %d", got)
	}
	if got := a.Intersect(b); !got.Equal(NewCPUSet(2, 3)) {
		t.Fatalf("intersect = %v", got)
	}
	if got := a.Difference(b); !got.Equal(NewCPUSet(0, 1)) {
		t.Fatalf("difference = %v", got)
	}
	if !NewCPUSet(2, 3).IsSubsetOf(a) || a.IsSubsetOf(b) {
		t.Fatal("subset broken")
	}
}

func TestCPUSetIteration(t *testing.T) {
	s := NewCPUSet(5, 64, 63, 700)
	want := []int{5, 63, 64, 700}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice = %v, want %v", got, want)
		}
	}
	if s.Next(64) != 700 || s.Next(700) != -1 || s.Next(-5) != 5 {
		t.Fatal("Next broken")
	}
	n := 0
	s.ForEach(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatal("ForEach early stop broken")
	}
}

func TestCPUSetStringAndParse(t *testing.T) {
	cases := []struct {
		set  CPUSet
		want string
	}{
		{CPUSet{}, ""},
		{NewCPUSet(0), "0"},
		{NewCPUSet(0, 1, 2, 3), "0-3"},
		{NewCPUSet(0, 1, 3, 8, 9, 10), "0-1,3,8-10"},
	}
	for _, c := range cases {
		if got := c.set.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		back, err := ParseList(c.want)
		if err != nil {
			t.Fatalf("ParseList(%q): %v", c.want, err)
		}
		if !back.Equal(c.set) {
			t.Errorf("round trip of %q failed", c.want)
		}
	}
}

func TestParseListErrors(t *testing.T) {
	for _, bad := range []string{"x", "1-", "-3", "5-2", "1,,2", "1-99999", "1e3"} {
		if _, err := ParseList(bad); err == nil {
			t.Errorf("ParseList(%q) should fail", bad)
		}
	}
	if s, err := ParseList(" 1, 3-4 "); err != nil || s.Count() != 3 {
		t.Errorf("whitespace tolerance broken: %v %v", s, err)
	}
}

// Property: String/ParseList round-trips for arbitrary sets.
func TestCPUSetRoundTripProperty(t *testing.T) {
	f := func(cpus []uint16) bool {
		var s CPUSet
		for _, c := range cpus {
			s.Add(int(c) % MaxCPUs)
		}
		back, err := ParseList(s.String())
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identity — |A∪B| = |A| + |B| - |A∩B|.
func TestCPUSetCountProperty(t *testing.T) {
	f := func(as, bs []uint16) bool {
		var a, b CPUSet
		for _, c := range as {
			a.Add(int(c) % MaxCPUs)
		}
		for _, c := range bs {
			b.Add(int(c) % MaxCPUs)
		}
		return a.Union(b).Count() == a.Count()+b.Count()-a.Intersect(b).Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperHostLayout(t *testing.T) {
	h := PaperHost()
	if h.NumCPUs() != 112 || h.NumPhysicalCores() != 56 {
		t.Fatalf("paper host: %d cpus / %d cores", h.NumCPUs(), h.NumPhysicalCores())
	}
	if h.Socket(0) != 0 || h.Socket(27) != 0 || h.Socket(28) != 1 || h.Socket(111) != 3 {
		t.Fatal("socket mapping broken")
	}
	if h.PhysicalCore(0) != 0 || h.PhysicalCore(1) != 0 || h.PhysicalCore(2) != 1 {
		t.Fatal("core mapping broken")
	}
	if !h.SiblingsOf(0).Equal(NewCPUSet(0, 1)) {
		t.Fatalf("siblings of 0 = %v", h.SiblingsOf(0))
	}
	if h.SocketCPUs(1).Count() != 28 || h.SocketCPUs(1).First() != 28 {
		t.Fatal("socket cpus broken")
	}
}

func TestDistances(t *testing.T) {
	h := PaperHost()
	cases := []struct {
		a, b int
		want Distance
	}{
		{5, 5, SameCPU},
		{0, 1, SMTSibling},
		{0, 2, SameSocket},
		{0, 28, CrossSocket},
	}
	for _, c := range cases {
		if got := h.DistanceBetween(c.a, c.b); got != c.want {
			t.Errorf("distance(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	for _, d := range []Distance{SameCPU, SMTSibling, SameSocket, CrossSocket, Distance(99)} {
		if d.String() == "" {
			t.Error("empty distance string")
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 0, 4, 1); err == nil {
		t.Fatal("zero sockets should fail")
	}
	if _, err := New("big", 64, 32, 2); err == nil {
		t.Fatal("4096 cpus should exceed MaxCPUs... (64*32*2=4096 > 1024)")
	}
	topo, err := New("ok", 2, 4, 2)
	if err != nil || topo.NumCPUs() != 16 {
		t.Fatalf("valid topology rejected: %v", err)
	}
	if !strings.Contains(topo.String(), "2 socket(s)") {
		t.Fatalf("String() = %q", topo.String())
	}
}

func TestPinPlanPrefersDistinctCoresNearSocket(t *testing.T) {
	h := PaperHost()
	// Near CPU 30 (socket 1): all 4 CPUs should be thread-0 of socket-1
	// cores.
	set := h.PinPlan(4, 30)
	if set.Count() != 4 {
		t.Fatalf("plan size %d", set.Count())
	}
	set.ForEach(func(c int) bool {
		if h.Socket(c) != 1 {
			t.Errorf("cpu %d not on socket 1", c)
		}
		if h.Thread(c) != 0 {
			t.Errorf("cpu %d is an SMT sibling; distinct cores come first", c)
		}
		return true
	})
	// 16 CPUs starting at socket 0: 14 cores on socket 0 + 2 on socket 1,
	// no SMT sharing.
	set = h.PinPlan(16, 0)
	phys := map[int]int{}
	set.ForEach(func(c int) bool { phys[h.PhysicalCore(c)]++; return true })
	for core, n := range phys {
		if n > 1 {
			t.Errorf("physical core %d shared by %d pinned CPUs", core, n)
		}
	}
	if h.SocketsSpanned(set) != 2 {
		t.Errorf("16-cpu plan spans %d sockets, want 2", h.SocketsSpanned(set))
	}
}

func TestPinPlanEdgeCases(t *testing.T) {
	h := PaperHost()
	if !h.PinPlan(0, 0).IsEmpty() {
		t.Fatal("plan of 0 must be empty")
	}
	if got := h.PinPlan(1000, 0).Count(); got != 112 {
		t.Fatalf("oversize plan = %d cpus", got)
	}
	if got := h.PinPlan(2, -1).Count(); got != 2 {
		t.Fatalf("negative near: %d cpus", got)
	}
}

func TestInterleavedCPUs(t *testing.T) {
	h := PaperHost()
	set := h.InterleavedCPUs(4)
	// One CPU per socket, all thread-0.
	if h.SocketsSpanned(set) != 4 {
		t.Fatalf("interleaved 4 spans %d sockets, want 4", h.SocketsSpanned(set))
	}
	set.ForEach(func(c int) bool {
		if h.Thread(c) != 0 {
			t.Errorf("cpu %d is not thread 0", c)
		}
		return true
	})
	// All 56 physical cores come before any SMT sibling.
	set = h.InterleavedCPUs(56)
	phys := map[int]bool{}
	set.ForEach(func(c int) bool { phys[h.PhysicalCore(c)] = true; return true })
	if len(phys) != 56 {
		t.Fatalf("interleaved 56 covers %d physical cores", len(phys))
	}
	if got := h.InterleavedCPUs(200).Count(); got != 112 {
		t.Fatalf("oversize interleave = %d", got)
	}
}

// Property: PinPlan always returns exactly min(n, cpus) distinct CPUs.
func TestPinPlanSizeProperty(t *testing.T) {
	h := PaperHost()
	f := func(nRaw uint8, nearRaw uint8) bool {
		n := int(nRaw)
		near := int(nearRaw) % h.NumCPUs()
		want := n
		if want > h.NumCPUs() {
			want = h.NumCPUs()
		}
		return h.PinPlan(n, near).Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
