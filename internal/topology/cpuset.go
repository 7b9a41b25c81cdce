// Package topology models CPU topologies (sockets, cores, SMT threads, cache
// sharing and NUMA distance) and provides the CPUSet type used everywhere a
// set of logical CPUs is needed: scheduler affinity masks, cgroup cpusets,
// pinning plans, and the real-affinity syscall wrappers.
package topology

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxCPUs is the largest logical CPU id + 1 representable in a CPUSet.
const MaxCPUs = 1024

const setWords = MaxCPUs / 64

// CPUSet is a fixed-size bitmask of logical CPU ids. The zero value is the
// empty set. CPUSet is a value type: methods that modify it take a pointer
// receiver, and so do the scan methods (Words, Word, Contains, Next) that
// the scheduler calls through shared *CPUSet masks, which would otherwise
// copy the whole 136-byte set per call; set-algebra methods return new
// sets.
//
// A set carries a high-word hint so algebra and scans on realistic 8–112
// CPU machines touch one or two words instead of all 16. Compare sets with
// Equal, never with ==: two equal sets may carry different hints.
type CPUSet struct {
	bits [setWords]uint64
	// hi is the number of significant words: an upper bound such that
	// bits[i] == 0 for all i >= hi. It is a hint, not an exact population
	// bound — words below hi may be zero — but Remove re-tightens it when
	// it clears the last bit of the top significant word, so long-lived
	// sets that shrink (a cgroup spread, an idle mask) keep cheap scans.
	hi int8
}

// maxHi returns the larger significant-word count of two sets.
func maxHi(s, o CPUSet) int8 {
	if s.hi >= o.hi {
		return s.hi
	}
	return o.hi
}

// minHi returns the smaller significant-word count of two sets.
func minHi(s, o CPUSet) int8 {
	if s.hi <= o.hi {
		return s.hi
	}
	return o.hi
}

// NewCPUSet returns a set containing the given CPUs.
func NewCPUSet(cpus ...int) CPUSet {
	var s CPUSet
	for _, c := range cpus {
		s.Add(c)
	}
	return s
}

// Range returns the set {lo, lo+1, ..., hi} (inclusive), empty when
// lo > hi. A nonempty range must lie within [0, MaxCPUs): out-of-range ids
// panic, as in Add.
func Range(lo, hi int) CPUSet {
	var s CPUSet
	if lo > hi {
		return s
	}
	if lo < 0 || hi >= MaxCPUs {
		panic(fmt.Sprintf("topology: cpu range %d-%d out of range", lo, hi))
	}
	lw, hw := lo/64, hi/64
	for w := lw; w <= hw; w++ {
		s.bits[w] = ^uint64(0)
	}
	s.bits[lw] &= ^uint64(0) << uint(lo%64)
	s.bits[hw] &= ^uint64(0) >> uint(63-hi%64)
	s.hi = int8(hw + 1)
	return s
}

// Add inserts cpu into the set. Out-of-range ids panic: they are model bugs.
func (s *CPUSet) Add(cpu int) {
	if cpu < 0 || cpu >= MaxCPUs {
		panic(fmt.Sprintf("topology: cpu %d out of range", cpu))
	}
	w := cpu / 64
	s.bits[w] |= 1 << uint(cpu%64)
	if int8(w) >= s.hi {
		s.hi = int8(w) + 1
	}
}

// Remove deletes cpu from the set. Out-of-range ids panic, exactly like
// Add: silently ignoring them would let a model bug pass as a no-op.
func (s *CPUSet) Remove(cpu int) {
	if cpu < 0 || cpu >= MaxCPUs {
		panic(fmt.Sprintf("topology: cpu %d out of range", cpu))
	}
	s.bits[cpu/64] &^= 1 << uint(cpu%64)
	// Shrink the significant-word hint past trailing zero words, so a set
	// that grew to a high CPU id and emptied back down scans cheaply again.
	for s.hi > 0 && s.bits[s.hi-1] == 0 {
		s.hi--
	}
}

// Words returns the set's significant-word count: bits[i] == 0 for every
// word index i >= Words(). Together with Word it enables allocation-free
// mask-driven scans (iterate set bits word by word) without exposing the
// backing array.
func (s *CPUSet) Words() int { return int(s.hi) }

// Word returns the i-th 64-bit word of the mask (CPUs 64i..64i+63). Any
// index from 0 to setWords-1 is valid; words at or beyond Words() are zero.
func (s *CPUSet) Word(i int) uint64 {
	if i < 0 || i >= int(s.hi) {
		return 0
	}
	return s.bits[i]
}

// Contains reports whether cpu is in the set; any out-of-range id is
// simply not a member.
func (s *CPUSet) Contains(cpu int) bool {
	w := cpu / 64
	if cpu < 0 || w >= int(s.hi) {
		return false
	}
	return s.bits[w]&(1<<uint(cpu%64)) != 0
}

// Count returns the number of CPUs in the set.
func (s CPUSet) Count() int {
	n := 0
	for _, w := range s.bits[:s.hi] {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no CPUs.
func (s CPUSet) IsEmpty() bool {
	for _, w := range s.bits[:s.hi] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two sets contain exactly the same CPUs.
func (s CPUSet) Equal(o CPUSet) bool {
	// Words beyond each set's hint are zero by invariant, so comparing up
	// to the larger hint covers the full mask.
	for i := int8(0); i < maxHi(s, o); i++ {
		if s.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ o.
func (s CPUSet) Union(o CPUSet) CPUSet {
	var r CPUSet
	r.hi = maxHi(s, o)
	for i := int8(0); i < r.hi; i++ {
		r.bits[i] = s.bits[i] | o.bits[i]
	}
	return r
}

// Intersect returns s ∩ o.
func (s CPUSet) Intersect(o CPUSet) CPUSet {
	var r CPUSet
	r.hi = minHi(s, o)
	for i := int8(0); i < r.hi; i++ {
		r.bits[i] = s.bits[i] & o.bits[i]
	}
	return r
}

// Difference returns s \ o.
func (s CPUSet) Difference(o CPUSet) CPUSet {
	var r CPUSet
	r.hi = s.hi
	for i := int8(0); i < r.hi; i++ {
		r.bits[i] = s.bits[i] &^ o.bits[i]
	}
	return r
}

// IsSubsetOf reports whether every CPU in s is also in o.
func (s CPUSet) IsSubsetOf(o CPUSet) bool {
	for i := int8(0); i < s.hi; i++ {
		if s.bits[i]&^o.bits[i] != 0 {
			return false
		}
	}
	return true
}

// First returns the lowest CPU id in the set, or -1 if empty.
func (s CPUSet) First() int {
	for i, w := range s.bits[:s.hi] {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Next returns the lowest CPU id strictly greater than cpu, or -1.
func (s *CPUSet) Next(cpu int) int {
	start := cpu + 1
	if start < 0 {
		start = 0
	}
	if start >= int(s.hi)*64 {
		return -1
	}
	w := s.bits[start/64] >> uint(start%64)
	if w != 0 {
		return start + bits.TrailingZeros64(w)
	}
	for i := int8(start/64) + 1; i < s.hi; i++ {
		if s.bits[i] != 0 {
			return int(i)*64 + bits.TrailingZeros64(s.bits[i])
		}
	}
	return -1
}

// ForEach calls fn for each CPU in ascending order; returning false stops.
func (s CPUSet) ForEach(fn func(cpu int) bool) {
	for c := s.First(); c >= 0; c = s.Next(c) {
		if !fn(c) {
			return
		}
	}
}

// Slice returns the CPUs in ascending order.
func (s CPUSet) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(c int) bool { out = append(out, c); return true })
	return out
}

// String formats the set in Linux cpu-list syntax, e.g. "0-3,8,10-11".
// The empty set formats as "".
func (s CPUSet) String() string {
	var b strings.Builder
	first := true
	c := s.First()
	for c >= 0 {
		runEnd := c
		for s.Contains(runEnd + 1) {
			runEnd++
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		if runEnd == c {
			fmt.Fprintf(&b, "%d", c)
		} else {
			fmt.Fprintf(&b, "%d-%d", c, runEnd)
		}
		c = s.Next(runEnd)
	}
	return b.String()
}

// ParseList parses Linux cpu-list syntax ("0-3,8,10-11"). An empty string
// yields the empty set. Whitespace around items is tolerated.
func ParseList(list string) (CPUSet, error) {
	var s CPUSet
	list = strings.TrimSpace(list)
	if list == "" {
		return s, nil
	}
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return CPUSet{}, fmt.Errorf("topology: empty item in cpu list %q", list)
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(strings.TrimSpace(lo))
			if err != nil {
				return CPUSet{}, fmt.Errorf("topology: bad cpu range %q: %v", part, err)
			}
			b, err := strconv.Atoi(strings.TrimSpace(hi))
			if err != nil {
				return CPUSet{}, fmt.Errorf("topology: bad cpu range %q: %v", part, err)
			}
			if a < 0 || b >= MaxCPUs || a > b {
				return CPUSet{}, fmt.Errorf("topology: bad cpu range %q", part)
			}
			for c := a; c <= b; c++ {
				s.Add(c)
			}
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil {
			return CPUSet{}, fmt.Errorf("topology: bad cpu %q: %v", part, err)
		}
		if c < 0 || c >= MaxCPUs {
			return CPUSet{}, fmt.Errorf("topology: cpu %d out of range", c)
		}
		s.Add(c)
	}
	return s, nil
}
