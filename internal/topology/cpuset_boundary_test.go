package topology

import "testing"

// The word-boundary suite: CPUSet is a 16-word mask with a high-word hint,
// and every boundary between words (CPUs 63/64, 511/512, and the top id
// 1023) is where a scan that hardcodes single-word assumptions, an
// off-by-one in the hint, or a missed carry between words would corrupt the
// set algebra. These tests pin the exact behavior at those seams.

func TestCPUSetWordBoundaryAddContains(t *testing.T) {
	for _, cpu := range []int{0, 63, 64, 127, 128, 511, 512, 1022, 1023} {
		s := NewCPUSet(cpu)
		if !s.Contains(cpu) {
			t.Fatalf("cpu %d: Add then Contains = false", cpu)
		}
		if s.Count() != 1 {
			t.Fatalf("cpu %d: Count = %d, want 1", cpu, s.Count())
		}
		if s.First() != cpu {
			t.Fatalf("cpu %d: First = %d", cpu, s.First())
		}
		if got := s.Words(); got != cpu/64+1 {
			t.Fatalf("cpu %d: Words = %d, want %d", cpu, got, cpu/64+1)
		}
		if w := s.Word(cpu / 64); w != 1<<uint(cpu%64) {
			t.Fatalf("cpu %d: Word(%d) = %#x", cpu, cpu/64, w)
		}
		for _, absent := range []int{cpu - 1, cpu + 1} {
			if absent >= 0 && absent < MaxCPUs && s.Contains(absent) {
				t.Fatalf("cpu %d: Contains(%d) = true", cpu, absent)
			}
		}
	}
}

func TestCPUSetCrossWordRange(t *testing.T) {
	// A range straddling each word seam must carry cleanly across it.
	for _, seam := range []int{64, 512, 960} {
		s := Range(seam-2, seam+1)
		if s.Count() != 4 {
			t.Fatalf("seam %d: Count = %d, want 4", seam, s.Count())
		}
		for c := seam - 2; c <= seam+1; c++ {
			if !s.Contains(c) {
				t.Fatalf("seam %d: missing cpu %d", seam, c)
			}
		}
		if s.Next(seam-1) != seam {
			t.Fatalf("seam %d: Next(%d) = %d, want %d", seam, seam-1, s.Next(seam-1), seam)
		}
		want := []int{seam - 2, seam - 1, seam, seam + 1}
		for i, c := range s.Slice() {
			if c != want[i] {
				t.Fatalf("seam %d: Slice = %v", seam, s.Slice())
			}
		}
	}
}

// TestRangeMatchesPerCPUAdds: Range fills whole words; it must build the
// same set and the same significant-word hint as adding each CPU in turn.
func TestRangeMatchesPerCPUAdds(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{
		{0, 0}, {0, 63}, {0, 64}, {63, 64}, {1, 62}, {64, 127}, {63, 128},
		{127, 128}, {5, 1023}, {1023, 1023}, {0, 1023}, {5, 4}, {1023, 0},
	} {
		var want CPUSet
		for cpu := c.lo; cpu <= c.hi; cpu++ {
			want.Add(cpu)
		}
		got := Range(c.lo, c.hi)
		if !got.Equal(want) || got.Words() != want.Words() {
			t.Fatalf("Range(%d, %d) = %v (words %d), want %v (words %d)",
				c.lo, c.hi, got.String(), got.Words(), want.String(), want.Words())
		}
	}
}

func TestCPUSetWordBoundaryAlgebra(t *testing.T) {
	lo := NewCPUSet(0, 63)           // one word
	hiSeam := NewCPUSet(63, 64)      // straddles words 0/1
	top := NewCPUSet(511, 512, 1023) // words 7, 8 and 15

	if u := lo.Union(hiSeam); u.Count() != 3 || !u.Contains(64) || u.Words() != 2 {
		t.Fatalf("Union across seam: %v (words %d)", u.Slice(), u.Words())
	}
	if i := lo.Intersect(hiSeam); i.Count() != 1 || !i.Contains(63) {
		t.Fatalf("Intersect across seam: %v", i.Slice())
	}
	// Intersecting a low set with a high set: the result's hint must not
	// let high-word garbage or short loops report phantom members.
	if i := lo.Intersect(top); !i.IsEmpty() {
		t.Fatalf("disjoint Intersect nonempty: %v", i.Slice())
	}
	if d := top.Difference(NewCPUSet(512)); d.Count() != 2 || !d.Contains(511) || !d.Contains(1023) {
		t.Fatalf("Difference at seam: %v", d.Slice())
	}
	u := lo.Union(top)
	if u.Words() != 16 || u.Count() != 5 {
		t.Fatalf("Union with top word: words %d count %d", u.Words(), u.Count())
	}
	if !lo.IsSubsetOf(u) || !top.IsSubsetOf(u) || u.IsSubsetOf(lo) {
		t.Fatal("subset relations across words broken")
	}
}

func TestCPUSetRemoveShrinksHiHint(t *testing.T) {
	// A set that grew to the top word and emptied back down must re-tighten
	// its significant-word hint, so long-lived shrinking sets (idle masks,
	// cgroup spreads) keep cheap scans.
	s := NewCPUSet(3, 1023)
	if s.Words() != 16 {
		t.Fatalf("Words = %d, want 16", s.Words())
	}
	s.Remove(1023)
	if s.Words() != 1 {
		t.Fatalf("after removing top bit: Words = %d, want 1", s.Words())
	}
	if !s.Contains(3) || s.Count() != 1 {
		t.Fatalf("shrink corrupted the set: %v", s.Slice())
	}
	// Removing a mid-word bit below another set bit must NOT shrink.
	s = NewCPUSet(64, 512)
	s.Remove(64)
	if s.Words() != 9 || !s.Contains(512) {
		t.Fatalf("mid removal: words %d set %v", s.Words(), s.Slice())
	}
	// Draining everything lands back at the empty set's zero hint.
	s.Remove(512)
	if s.Words() != 0 || !s.IsEmpty() {
		t.Fatalf("drained set: words %d empty %v", s.Words(), s.IsEmpty())
	}
	// Equal must treat a shrunk set and a never-grown set identically even
	// though their internal hints differ in history.
	a := NewCPUSet(5, 1023)
	a.Remove(1023)
	if !a.Equal(NewCPUSet(5)) {
		t.Fatal("shrunk set not Equal to fresh set")
	}
}

func TestCPUSetParseFormatBoundaries(t *testing.T) {
	cases := []struct {
		list string
		want []int
	}{
		{"63-64", []int{63, 64}},
		{"511-512", []int{511, 512}},
		{"1023", []int{1023}},
		{"0,63-65,1022-1023", []int{0, 63, 64, 65, 1022, 1023}},
	}
	for _, c := range cases {
		s, err := ParseList(c.list)
		if err != nil {
			t.Fatalf("ParseList(%q): %v", c.list, err)
		}
		got := s.Slice()
		if len(got) != len(c.want) {
			t.Fatalf("ParseList(%q) = %v, want %v", c.list, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ParseList(%q) = %v, want %v", c.list, got, c.want)
			}
		}
		// Round trip: format and reparse.
		back, err := ParseList(s.String())
		if err != nil || !back.Equal(s) {
			t.Fatalf("round trip %q -> %q failed (%v)", c.list, s.String(), err)
		}
	}
	// 1024 is the first out-of-range id: both forms must be rejected.
	if _, err := ParseList("1024"); err == nil {
		t.Fatal("ParseList(1024) must fail")
	}
	if _, err := ParseList("1000-1024"); err == nil {
		t.Fatal("ParseList(1000-1024) must fail")
	}
}

func TestCPUSetNextAtTopWord(t *testing.T) {
	s := NewCPUSet(1023)
	if s.Next(1022) != 1023 {
		t.Fatalf("Next(1022) = %d", s.Next(1022))
	}
	if s.Next(1023) != -1 {
		t.Fatalf("Next(1023) = %d, want -1", s.Next(1023))
	}
	if s.Next(-5) != 1023 {
		t.Fatalf("Next(-5) = %d, want 1023", s.Next(-5))
	}
}
