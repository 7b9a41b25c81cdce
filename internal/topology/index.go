package topology

import (
	"sync"
	"sync/atomic"
)

// Index is the precomputed lookup side of a Topology: per-CPU sibling lists,
// socket/core tables and the full CPU→CPU distance matrix. It exists so
// per-dispatch scheduler paths (SMT contention checks, idle balancing,
// migration-cost classification) read flat arrays instead of re-deriving
// division/modulo arithmetic or walking CPUSet iterators with callback
// closures.
//
// New builds every Topology's Index before returning it, and an Index is
// read-only after build, so sharing a *Topology across worker goroutines is
// safe.
type Index struct {
	n int

	socketOf []int16 // logical CPU -> socket
	coreOf   []int16 // logical CPU -> global physical core

	// siblings[cpu] lists the *other* hardware threads of cpu's physical
	// core, ascending (empty when ThreadsPerCore == 1).
	siblings [][]int16
	// socketCPUs[socket] lists the socket's logical CPUs, ascending.
	socketCPUs [][]int16
	// dist is the flattened n×n distance matrix: dist[a*n+b].
	dist []uint8
	// socketStart[s] is the first logical CPU id of socket s; sockets are
	// contiguous id ranges in this enumeration.
	socketStart []int16
}

// buildIndex computes the full Index for t.
func buildIndex(t *Topology) *Index {
	n := t.NumCPUs()
	ix := &Index{
		n:           n,
		socketOf:    make([]int16, n),
		coreOf:      make([]int16, n),
		siblings:    make([][]int16, n),
		socketCPUs:  make([][]int16, t.Sockets),
		dist:        make([]uint8, n*n),
		socketStart: make([]int16, t.Sockets),
	}
	perSocket := t.CoresPerSocket * t.ThreadsPerCore
	// One backing array per table keeps the index a handful of allocations.
	sibBack := make([]int16, 0, n*(t.ThreadsPerCore-1))
	sockBack := make([]int16, n)
	for c := 0; c < n; c++ {
		ix.socketOf[c] = int16(c / perSocket)
		ix.coreOf[c] = int16(c / t.ThreadsPerCore)
	}
	for s := 0; s < t.Sockets; s++ {
		lo, hi := s*perSocket, (s+1)*perSocket
		ix.socketStart[s] = int16(lo)
		for c := lo; c < hi; c++ {
			sockBack[c] = int16(c)
		}
		ix.socketCPUs[s] = sockBack[lo:hi:hi]
	}
	for c := 0; c < n; c++ {
		coreLo := int(ix.coreOf[c]) * t.ThreadsPerCore
		start := len(sibBack)
		for s := coreLo; s < coreLo+t.ThreadsPerCore; s++ {
			if s != c {
				sibBack = append(sibBack, int16(s))
			}
		}
		ix.siblings[c] = sibBack[start:len(sibBack):len(sibBack)]
		for o := 0; o < n; o++ {
			ix.dist[c*n+o] = uint8(ix.distanceSlow(c, o))
		}
	}
	return ix
}

// distanceSlow classifies distance from the raw tables (used while the
// matrix is being filled).
func (ix *Index) distanceSlow(a, b int) Distance {
	switch {
	case a == b:
		return SameCPU
	case ix.coreOf[a] == ix.coreOf[b]:
		return SMTSibling
	case ix.socketOf[a] == ix.socketOf[b]:
		return SameSocket
	default:
		return CrossSocket
	}
}

// NumCPUs returns the indexed CPU count.
func (ix *Index) NumCPUs() int { return ix.n }

// Socket returns the socket of a logical CPU.
func (ix *Index) Socket(cpu int) int { return int(ix.socketOf[cpu]) }

// NumSockets returns the socket count.
func (ix *Index) NumSockets() int { return len(ix.socketCPUs) }

// Siblings returns the other hardware threads sharing cpu's physical core,
// ascending. The returned slice is shared — callers must not modify it.
func (ix *Index) Siblings(cpu int) []int16 { return ix.siblings[cpu] }

// SocketCPUs returns the logical CPUs of one socket, ascending. Shared;
// read-only.
func (ix *Index) SocketCPUs(socket int) []int16 { return ix.socketCPUs[socket] }

// Distance returns the precomputed distance class between two CPUs.
func (ix *Index) Distance(a, b int) Distance { return Distance(ix.dist[a*ix.n+b]) }

// SocketRange returns the half-open logical-CPU id range [lo, hi) of one
// socket; sockets are contiguous id ranges in this enumeration.
func (ix *Index) SocketRange(socket int) (lo, hi int) {
	lo = int(ix.socketStart[socket])
	return lo, lo + len(ix.socketCPUs[socket])
}

// indexCache interns built Indexes by dimensions (sockets, cores per
// socket, threads per core), so the sibling/distance tables are computed
// once per host shape per process no matter how many Topology instances
// describe that shape (guest topologies per trial, per-request hosts in the
// advisor). Sharing is safe because an Index is read-only after build and
// every table derives purely from those three dimensions.
var (
	indexCacheMu sync.Mutex
	indexCache   = map[[3]int]*Index{}
	indexHits    atomic.Uint64
	indexMisses  atomic.Uint64
)

// internIndex returns the cached Index for t's shape, building and caching
// it on first sight. Same-shape builds serialize on the cache lock so a
// concurrent herd of first-builds produces exactly one table set.
func internIndex(t *Topology) *Index {
	key := [3]int{t.Sockets, t.CoresPerSocket, t.ThreadsPerCore}
	indexCacheMu.Lock()
	ix, ok := indexCache[key]
	if !ok {
		ix = buildIndex(t)
		indexCache[key] = ix
	}
	indexCacheMu.Unlock()
	if ok {
		indexHits.Add(1)
	} else {
		indexMisses.Add(1)
	}
	return ix
}

// IndexCacheStats reports the process-wide topology index cache counters:
// how many Index builds were skipped by the shape cache (hits) and how many
// shapes were actually built (misses).
func IndexCacheStats() (hits, misses uint64) {
	return indexHits.Load(), indexMisses.Load()
}

// Index returns the topology's precomputed index (nil for a Topology that
// New did not build; Validate rejects those).
func (t *Topology) Index() *Index { return t.idx }
