package topology

import "testing"

// indexTopos is the cross-check matrix: SMT and non-SMT, single- and
// multi-socket, including the paper host.
func indexTopos(t *testing.T) []*Topology {
	t.Helper()
	var out []*Topology
	for _, dims := range [][3]int{{1, 1, 1}, {1, 4, 1}, {1, 4, 2}, {2, 3, 2}, {4, 14, 2}} {
		topo, err := New("ix", dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
	}
	return out
}

func TestIndexMatchesDerivations(t *testing.T) {
	for _, topo := range indexTopos(t) {
		ix := topo.Index()
		n := topo.NumCPUs()
		if ix.NumCPUs() != n || ix.NumSockets() != topo.Sockets {
			t.Fatalf("%v: index dims %d/%d", topo, ix.NumCPUs(), ix.NumSockets())
		}
		for a := 0; a < n; a++ {
			if ix.Socket(a) != a/(topo.CoresPerSocket*topo.ThreadsPerCore) {
				t.Fatalf("%v: socketOf(%d)", topo, a)
			}
			// Siblings = SiblingsOf minus self, ascending.
			want := topo.SiblingsOf(a).Slice()
			var got []int
			for _, s := range ix.Siblings(a) {
				got = append(got, int(s))
			}
			wi := 0
			for _, w := range want {
				if w == a {
					continue
				}
				if wi >= len(got) || got[wi] != w {
					t.Fatalf("%v: siblings(%d) = %v, want %v\\{%d}", topo, a, got, want, a)
				}
				wi++
			}
			if wi != len(got) {
				t.Fatalf("%v: siblings(%d) has extras: %v", topo, a, got)
			}
			for b := 0; b < n; b++ {
				slow := Distance(0)
				switch {
				case a == b:
					slow = SameCPU
				case a/topo.ThreadsPerCore == b/topo.ThreadsPerCore:
					slow = SMTSibling
				case ix.Socket(a) == ix.Socket(b):
					slow = SameSocket
				default:
					slow = CrossSocket
				}
				if d := ix.Distance(a, b); d != slow {
					t.Fatalf("%v: dist(%d,%d) = %v, want %v", topo, a, b, d, slow)
				}
				if d := topo.DistanceBetween(a, b); d != slow {
					t.Fatalf("%v: DistanceBetween(%d,%d) = %v, want %v", topo, a, b, d, slow)
				}
			}
		}
		for s := 0; s < topo.Sockets; s++ {
			want := topo.SocketCPUs(s).Slice()
			got := ix.SocketCPUs(s)
			if len(got) != len(want) {
				t.Fatalf("%v: socketCPUs(%d) len", topo, s)
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("%v: socketCPUs(%d)[%d] = %d, want %d", topo, s, i, got[i], want[i])
				}
			}
		}
	}
}

// TestValidateRejectsLiteral: a literal Topology with valid dimensions has
// no index, so Validate refuses it instead of letting a lookup dereference
// nil; the same dimensions through New validate.
func TestValidateRejectsLiteral(t *testing.T) {
	lit := &Topology{Name: "lit", Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}
	if err := lit.Validate(); err == nil {
		t.Fatal("literal topology validated")
	}
	built, err := New("lit", 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Validate(); err != nil {
		t.Fatalf("New-built topology: %v", err)
	}
}

// TestIndexInternedByShape: topologies that share dimensions share one
// Index whatever their name, LLC size or clock.
func TestIndexInternedByShape(t *testing.T) {
	a, err := New("guest-a", 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("guest-b", 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.LLCMB, b.ClockGHz = 12, 3.1
	if a.Index() != b.Index() {
		t.Fatal("same-shape topologies built separate indexes")
	}
	c, err := New("guest-a", 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Index() == a.Index() {
		t.Fatal("different shapes share an index")
	}
}
