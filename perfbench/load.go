package main

import (
	"context"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"
)

// loadResult is one open-loop window: each request's latency measured
// from its due time and whether it succeeded, the generator's own
// lateness, and the backlog of due-but-unsent requests.
type loadResult struct {
	lat    []float64
	ok     []bool
	lateMs []float64
	depth  []int // requests waiting for a connection when each came due
}

// add appends the requests of another window.
func (l *loadResult) add(o loadResult) {
	l.lat = append(l.lat, o.lat...)
	l.ok = append(l.ok, o.ok...)
	l.lateMs = append(l.lateMs, o.lateMs...)
	l.depth = append(l.depth, o.depth...)
}

// good returns the latencies of the requests that succeeded.
func (l loadResult) good() []float64 {
	var out []float64
	for i, v := range l.lat {
		if l.ok[i] {
			out = append(out, v)
		}
	}
	return out
}

func (l loadResult) failed() int { return len(l.lat) - len(l.good()) }

// p returns the q-quantile of latency with every failed request counted
// as missing any limit (+Inf).
func (l loadResult) p(q float64) float64 {
	all := append([]float64(nil), l.lat...)
	for i := range all {
		if !l.ok[i] {
			all[i] = math.Inf(1)
		}
	}
	return quantile(sortedCopy(all), q)
}

// backlogGrew reports whether the queue of due requests waiting for a
// connection was materially longer over the second half of the window
// than over the first: the sign that the offered rate exceeds what the
// connections can carry.
func (l loadResult) backlogGrew(conns int) bool {
	half := len(l.depth) / 2
	if half == 0 {
		return false
	}
	var a, b float64
	for i, d := range l.depth {
		if i < half {
			a += float64(d)
		} else {
			b += float64(d)
		}
	}
	a /= float64(half)
	b /= float64(len(l.depth) - half)
	return b > 2*a+float64(conns)
}

// poisson returns n arrival offsets of a Poisson process at rate per
// second.
func poisson(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * 1e9)
	}
	return out
}

// openLoop offers requests at the scheduled offsets regardless of how
// fast earlier ones complete, with at most conns in flight (one
// goroutine per connection). A request's latency runs from the moment it
// was due, so time spent waiting behind a stall — in the generator or
// for a free connection — counts against it. do(w, i) sends request i on
// worker w and reports success.
func openLoop(sched []time.Duration, conns int, do func(w, i int) bool) loadResult {
	type due struct {
		i  int
		at time.Time
	}
	n := len(sched)
	// Sized to the number of sends, so the generator never blocks on a
	// busy connection and its lateness measures only itself.
	ch := make(chan due, n)
	res := loadResult{lat: make([]float64, n), ok: make([]bool, n), lateMs: make([]float64, n), depth: make([]int, n)}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := range ch {
				res.ok[d.i] = do(w, d.i)
				res.lat[d.i] = ms(time.Since(d.at))
			}
		}(w)
	}
	start := time.Now()
	for i, off := range sched {
		at := start.Add(off)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		res.lateMs[i] = ms(time.Since(at))
		res.depth[i] = len(ch)
		ch <- due{i, at}
	}
	close(ch)
	wg.Wait()
	return res
}

// memWatch follows the Go heap over a timed phase: the bytes it
// allocates, which are exact for deterministic work, and the peak size of
// live and not-yet-collected objects, which depends on when collections
// happen and is reported only for information.
type memWatch struct {
	stop   chan struct{}
	done   chan struct{}
	peak   uint64
	alloc0 uint64
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startMemWatch() *memWatch {
	m := &memWatch{stop: make(chan struct{}), done: make(chan struct{}), alloc0: readMetric(heapAllocs)}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := readMetric(heapObjects); v > m.peak {
				m.peak = v
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// Stop ends the phase and returns the kilobytes allocated per operation
// over ops operations, and the sampled peak heap in MB.
func (m *memWatch) Stop(ops int) (allocKB, peakMB float64) {
	alloc := readMetric(heapAllocs) - m.alloc0
	close(m.stop)
	<-m.done
	return float64(alloc) / 1024 / float64(ops), float64(m.peak) / (1 << 20)
}

// server is one in-process HTTP listener on a loopback port.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve returns ErrServerClosed after Shutdown; any other failure
		// surfaces as failed requests.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the listener and waits for its goroutine to return.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
