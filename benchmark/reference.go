package main

// Machine-speed references. The machine the baseline was recorded on (a
// 2-vCPU Xeon VM) shares its cores, caches and memory with other tenants,
// and its speed swings by 10-50% within minutes; a 20-second run cannot
// average that out. Each workload therefore times, between its units of
// work, a reference that does the same kind of work as the workload's
// dominant cost but runs no repository code, and end-to-end times are
// scaled by the run's median reference time. The reference runs only
// while the workload is idle, so a change that makes the program itself
// slower does not slow the reference.

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// reference is one kind of fixed reference work.
type reference struct {
	name string
	// nominalMs is the sample's median time on the baseline machine; it
	// only sets the scale.
	nominalMs float64
	// run does one sample's work as worker w.
	run func(w int)
}

var refSink atomic.Uint64

// eventReference mirrors the simulator: a discrete-event loop that pops
// the earliest event from a binary heap, updates a task drawn from a
// 1 MB table and schedules a follow-up event.
func eventReference(workers int) reference {
	worlds := make([]*eventWorld, workers)
	for i := range worlds {
		worlds[i] = newEventWorld(uint64(i) + 1)
	}
	return reference{name: "event-loop", nominalMs: 20, run: func(w int) { worlds[w].run(150_000) }}
}

type eventTask struct{ runtime, vruntime, wakeups, last uint64 }

type eventEntry struct {
	at   uint64
	task int32
}

type eventWorld struct {
	tasks []eventTask
	heap  []eventEntry
	rng   uint64
	now   uint64
}

func newEventWorld(seed uint64) *eventWorld {
	w := &eventWorld{tasks: make([]eventTask, 1<<15), rng: seed}
	for i := 0; i < 2048; i++ {
		w.push(eventEntry{at: w.next() % 1000, task: int32(w.next() % uint64(len(w.tasks)))})
	}
	return w
}

func (w *eventWorld) next() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

func (w *eventWorld) push(e eventEntry) {
	w.heap = append(w.heap, e)
	i := len(w.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if w.heap[p].at <= w.heap[i].at {
			break
		}
		w.heap[p], w.heap[i] = w.heap[i], w.heap[p]
		i = p
	}
}

func (w *eventWorld) pop() eventEntry {
	top := w.heap[0]
	last := len(w.heap) - 1
	w.heap[0] = w.heap[last]
	w.heap = w.heap[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < last && w.heap[l].at < w.heap[m].at {
			m = l
		}
		if l+1 < last && w.heap[l+1].at < w.heap[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		w.heap[i], w.heap[m] = w.heap[m], w.heap[i]
		i = m
	}
	return top
}

func (w *eventWorld) run(events int) {
	for k := 0; k < events; k++ {
		e := w.pop()
		w.now = e.at
		t := &w.tasks[e.task]
		r := w.next()
		t.runtime += w.now - t.last
		t.vruntime += r & 0xff
		if r&3 == 0 {
			t.wakeups++
		}
		t.last = w.now
		w.push(eventEntry{at: w.now + 1 + (r>>8)%1000, task: int32((r >> 20) % uint64(len(w.tasks)))})
	}
	refSink.Add(w.now)
}

// aggregateReference mirrors replay-warm's aggregation: math/rand
// bootstrap resampling of small samples with a sort per cell, after
// interleaved xorshift chains.
func aggregateReference() reference {
	return reference{name: "resample-sort", nominalMs: 20, run: func(int) {
		a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
		for i := 0; i < 6_000_000; i++ {
			a ^= a << 13
			b ^= b >> 7
			c ^= c << 17
			d += a ^ b
			a ^= a >> 7
			b ^= b << 17
			c ^= c >> 9
			d ^= c
		}
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = float64(i)
		}
		means := make([]float64, 1000)
		for cell := 0; cell < 18; cell++ {
			rng := rand.New(rand.NewSource(int64(cell)))
			for i := range means {
				s := 0.0
				for range xs {
					s += xs[rng.Intn(len(xs))]
				}
				means[i] = s / float64(len(xs))
			}
			sort.Float64s(means)
			d += uint64(means[len(means)/2])
		}
		refSink.Add(a + b + c + d)
	}}
}

// rpcReference mirrors the daemon's warm path: HTTP POSTs over a unix
// socket to a net/http handler that writes a fixed body, one connection
// per worker. stop shuts the server down and waits for it.
func rpcReference(dir string, workers int) (ref reference, stop func(), err error) {
	sock := filepath.Join(dir, "ref.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return reference{}, nil, err
	}
	body := bytes.Repeat([]byte(`{"x":0.125,"y":"abc"},`), 64)
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	clients := make([]*http.Client, workers)
	for i := range clients {
		clients[i] = unixClient(sock)
	}
	req := []byte(`{"name":"fig3","seed":42}`)
	ref = reference{name: "http-rpc", nominalMs: 20, run: func(w int) {
		for i := 0; i < 500; i++ {
			if _, _, _, err := post(clients[w], req, ""); err != nil {
				return
			}
		}
	}}
	stop = func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
		hs.Close()
		<-served
	}
	return ref, stop, nil
}

// speedRef samples a reference between units of work. A sample runs the
// reference on every worker at once, so each CPU the workload uses is
// measured.
type speedRef struct {
	ref     reference
	workers int
	ms      []float64
	last    time.Time
}

// sample times the reference once on every worker and records the mean.
func (s *speedRef) sample() {
	times := make([]float64, max(1, s.workers))
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			s.ref.run(i)
			times[i] = ms(time.Since(t0))
		}(i)
	}
	wg.Wait()
	s.last = time.Now()
	s.ms = append(s.ms, stats.Summarize(times).Mean)
}

// maybe samples when a second has passed since the last sample.
func (s *speedRef) maybe() {
	if time.Since(s.last) >= time.Second {
		s.sample()
	}
}

// factor is the run's median reference time over the nominal one: above
// 1 on a machine running slower than the baseline's.
func (s *speedRef) factor() float64 {
	if len(s.ms) == 0 || s.ref.nominalMs == 0 {
		return 1
	}
	return stats.Median(s.ms) / s.ref.nominalMs
}

// scaleToReference converts a measured value to the reference speed:
// times divide by the factor, rates multiply by it, other units stay.
func scaleToReference(v float64, unit string, f float64) float64 {
	switch unit {
	case "ms", "s":
		return v / f
	case "1/s":
		return v * f
	}
	return v
}
