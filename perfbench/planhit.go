package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"topoopt"
	"topoopt/internal/serve"
)

// presets are the six §5.3 workloads both planning workloads draw from.
var presets = []string{"bert", "candle", "dlrm", "ncf", "resnet50", "vgg16"}

const linkBandwidth = 100e9

func planRequest(preset string, n, d int, seed int64) serve.PlanRequest {
	return serve.PlanRequest{
		Model:   topoopt.ModelSpec{Preset: preset, Section: "5.3"},
		Options: topoopt.Options{Servers: n, Degree: d, LinkBandwidth: linkBandwidth, Seed: seed},
	}
}

// hitEntry is one plan of the plan-hit population.
type hitEntry struct {
	req   serve.PlanRequest
	body  []byte // request body
	ref   []byte // cached response body, fetched through member 1
	owner int    // index of the member that computed and caches the plan
	plan  *topoopt.Plan
	fp    string
}

// hitCluster is two topooptd members joined into one cluster, with every
// plan of the population computed and cached.
type hitCluster struct {
	svcs   [2]*serve.Service
	srvs   [2]*server
	client *http.Client
	pop    []hitEntry
}

func (c *hitCluster) close() {
	for i := range c.srvs {
		if c.srvs[i] != nil {
			c.srvs[i].close()
		}
		if c.svcs[i] != nil {
			c.svcs[i].Close()
		}
	}
	c.client.CloseIdleConnections()
}

// post sends a plan request and reads the whole response into buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (*http.Response, error) {
	resp, err := client.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp, err
}

// newHitCluster starts both members and fills their caches: every
// population request enters member 0, which computes the plans it owns
// and forwards the rest to member 1. The reference body of each plan is
// then fetched through member 1, so the timed phase, which enters member
// 0, checks both entry points against each other.
func newHitCluster(r *runCtx) (*hitCluster, error) {
	c := &hitCluster{client: newClient(r.nproc)}
	for i := range c.svcs {
		c.svcs[i] = serve.New(serve.Config{})
		srv, err := listen(c.svcs[i].Handler())
		if err != nil {
			c.close()
			return nil, err
		}
		c.srvs[i] = srv
	}
	peers := []string{c.srvs[0].url, c.srvs[1].url}
	for i := range c.svcs {
		if err := c.svcs[i].EnableCluster(serve.ClusterConfig{Self: peers[i], Peers: peers}); err != nil {
			c.close()
			return nil, err
		}
	}
	for _, p := range presets {
		for _, n := range []int{16, 32} {
			for _, d := range []int{2, 4} {
				req := planRequest(p, n, d, r.seed)
				body, err := json.Marshal(req)
				if err != nil {
					c.close()
					return nil, err
				}
				c.pop = append(c.pop, hitEntry{req: req, body: body, fp: req.Fingerprint()})
			}
		}
	}
	errs := make([]error, len(c.pop))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range next {
				e := &c.pop[i]
				resp, err := post(c.client, c.srvs[0].url, e.body, &buf)
				switch {
				case err != nil:
					errs[i] = err
				case resp.StatusCode != http.StatusOK:
					errs[i] = fmt.Errorf("computing %s: status %d: %s", e.fp[:12], resp.StatusCode, buf.String())
				case resp.Header.Get(serve.OwnerHeader) == peers[1]:
					e.owner = 1
				}
			}
		}()
	}
	for i := range c.pop {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.close()
			return nil, err
		}
	}
	var buf bytes.Buffer
	for i := range c.pop {
		e := &c.pop[i]
		resp, err := post(c.client, c.srvs[1].url, e.body, &buf)
		if err != nil {
			c.close()
			return nil, err
		}
		var pr serve.PlanResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(buf.Bytes(), &pr) != nil || !pr.Cached || pr.Fingerprint != e.fp || pr.Plan == nil {
			c.close()
			return nil, fmt.Errorf("reference fetch of %s: status %d, cached=%v: %.200s", e.fp[:12], resp.StatusCode, pr.Cached, buf.String())
		}
		e.ref = append([]byte(nil), buf.Bytes()...)
		e.plan = pr.Plan
	}
	return c, nil
}

// counters sums cache hits, misses and forwards across both members.
func (c *hitCluster) counters() (hits, misses, forwarded int64) {
	for _, s := range c.svcs {
		m := s.Metrics()
		hits += m.CacheHits
		misses += m.CacheMisses
		for _, f := range m.Forwarded {
			forwarded += f
		}
	}
	return
}

// hit sends e through member 0 and reports whether the response is
// the set-up plan, byte for byte; mismatches counts those that are not.
func (c *hitCluster) hit(e *hitEntry, buf *bytes.Buffer, mismatches *atomic.Int64) bool {
	resp, err := post(c.client, c.srvs[0].url, e.body, buf)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	if !bytes.Equal(buf.Bytes(), e.ref) {
		mismatches.Add(1)
		return false
	}
	return true
}

// hitLoad offers n requests at rate through member 0, each drawn
// uniformly from the population; pick[i] is request i's plan.
func (c *hitCluster) hitLoad(r *runCtx, rng *rand.Rand, rate float64, n int) (res loadResult, pick []int) {
	pick = make([]int, n)
	for i := range pick {
		pick[i] = rng.Intn(len(c.pop))
	}
	bufs := make([]bytes.Buffer, r.nproc)
	var bad atomic.Int64
	res = openLoop(poisson(rng, rate, n), r.nproc, func(w, i int) bool {
		return c.hit(&c.pop[pick[i]], &bufs[w], &bad)
	})
	r.check(bad.Load() == 0, "plan-hit: %d response bodies differ from the set-up plans", bad.Load())
	r.attempt += n
	r.failed += res.failed()
	return res, pick
}

// saturation measures closed-loop throughput with every connection busy.
func (c *hitCluster) saturation(r *runCtx, d time.Duration) float64 {
	var wg sync.WaitGroup
	var done, failed, bad atomic.Int64
	start := time.Now()
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := w; time.Since(start) < d; i += r.nproc {
				if c.hit(&c.pop[i%len(c.pop)], &buf, &bad) {
					done.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	r.check(bad.Load() == 0, "plan-hit: %d response bodies differ from the set-up plans", bad.Load())
	r.attempt += int(done.Load() + failed.Load())
	r.failed += int(failed.Load())
	return float64(done.Load()) / time.Since(start).Seconds()
}

func runPlanHit(r *runCtx) error {
	c, err := timedSetup(r, func() (*hitCluster, error) { return newHitCluster(r) }, (*hitCluster).close)
	if err != nil {
		return err
	}
	defer c.close()
	var iters []float64
	for _, e := range c.pop {
		iters = append(iters, e.plan.PredictedIteration.Total())
	}
	r.e2e["plan_iters_per_s"] = geoMeanInverse(iters)
	rng := rand.New(rand.NewSource(r.seed))
	h0, m0, f0 := c.counters()
	mem := startMemWatch()

	// The timed phase runs in rounds of about five seconds, each an
	// open-loop segment at one fixed, light offered rate followed by two
	// one-second capacity windows, so both measures sample the host's
	// speed across the whole run. Each segment starts on a collected heap,
	// so it does not pay for the capacity windows' garbage.
	//
	// Latency runs from each request's due time. The tail is the p90 over
	// the population of each plan's median latency: the hit cost of the
	// largest plans, which scales with plan size. A per-request p90 or p99
	// at these millisecond latencies is set by how often the host
	// deschedules the benchmark's CPUs, which swings from run to run, so
	// those are printed but are not metrics.
	//
	// Capacity is closed loop with every connection busy, the median of
	// the one-second windows.
	rate := r.spec.HitFixedRate
	rounds := max(3, int(r.dur/(5*time.Second)))
	segment := r.dur * 3 / 5 / time.Duration(rounds)
	var (
		fixed loadResult
		pick  []int
		caps  []float64
	)
	for k := 0; k < rounds; k++ {
		runtime.GC()
		st, p := c.hitLoad(r, rng, rate, max(1000/rounds+1, int(rate*segment.Seconds())))
		fixed.add(st)
		pick = append(pick, p...)
		for w := 0; w < 2; w++ {
			caps = append(caps, c.saturation(r, time.Second))
		}
	}
	byPlan := make([][]float64, len(c.pop))
	for i, v := range fixed.lat {
		if fixed.ok[i] {
			byPlan[pick[i]] = append(byPlan[pick[i]], v)
		}
	}
	var planMedians []float64
	for _, v := range byPlan {
		if len(v) > 0 {
			planMedians = append(planMedians, median(v))
		}
	}
	p50, tail := fixed.p(0.5), quantile(sortedCopy(planMedians), 0.9)
	r.e2e["latency_p50_ms"] = p50
	r.e2e["latency_tail_ms"] = tail
	lateP99 := quantile(sortedCopy(fixed.lateMs), 0.99)
	r.say("hit_p50_ms %.4f ms, hit_p90_ms %.4f ms, hit_p99_ms %.4f ms at %.0f req/s offered over %d requests (%d beyond p99); large-plan tail (p90 of per-plan medians) %.4f ms; generator lateness p50 %.4f ms, p99 %.4f ms",
		p50, fixed.p(0.9), fixed.p(0.99), rate, len(fixed.lat), len(fixed.lat)/100, tail, median(fixed.lateMs), lateP99)

	capacity := median(caps)
	r.e2e["throughput_per_s"] = capacity
	r.memory(mem)
	r.say("hit_capacity %.1f req/s over %d connections (median of 1-s windows: %s)", capacity, r.nproc, fmtList(caps, "%.0f"))

	h1, m1, f1 := c.counters()
	hits, misses := h1-h0, m1-m0
	ratio := float64(hits) / float64(hits+misses)
	r.check(misses == 0 && hits > 0, "plan-hit: %d cache misses during the timed phase (hit ratio %.4f)", misses, ratio)
	if !r.trace {
		return nil
	}
	r.layer("serve.cache_hit_ratio", ratio)
	r.layer("cluster.forwarded_share", float64(f1-f0)/float64(r.attempt))
	r.layer("slo.lateness_p99_ms", lateP99)
	c.maxRate(r, rng, capacity)
	return c.traceHit(r, mean(fixed.good()))
}

// maxRate reports the highest offered rate whose p99 stays within the
// limit with no failures and no growing backlog. It is printed by the
// traced run only: on a shared two-vCPU host the p99 of a window at a
// moderate rate swings several-fold from run to run, so the rate that
// crosses the limit is too unsteady to gate on. The offered rates form
// a fixed ladder scaled to capacity, one window of at least 1000 requests
// per rung. Failed requests count as infinite latency, and a backlog that
// grows through a window pushes its p99 past the limit. The rung p99s are
// made nondecreasing in rate (pool adjacent violators) and the limit
// crossing is interpolated log-log between the last rung within it and
// the first beyond.
func (c *hitCluster) maxRate(r *runCtx, rng *rand.Rand, capacity float64) {
	limit := r.spec.HitP99LimitMs
	ladder := []float64{0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95, 1.05}
	rates := make([]float64, len(ladder))
	rungP99 := make([]float64, len(ladder))
	grew := make([]bool, len(ladder))
	for k, f := range ladder {
		rates[k] = f * capacity
		st, _ := c.hitLoad(r, rng, rates[k], max(1000, int(rates[k])))
		rungP99[k] = st.p(0.99)
		grew[k] = st.backlogGrew(r.nproc)
	}
	fit := isotonic(rungP99)
	best := rates[0]
	for k := range rates {
		if fit[k] <= limit {
			best = rates[k]
			continue
		}
		if k > 0 && !math.IsInf(fit[k], 1) && fit[k-1] > 0 {
			f := math.Log(limit/fit[k-1]) / math.Log(fit[k]/fit[k-1])
			best = rates[k-1] * math.Pow(rates[k]/rates[k-1], f)
		}
		break
	}
	r.say("hit_max_rps %.1f req/s at p99 limit %.0f ms (offered %s req/s, p99 %s ms, fitted %s ms, backlog grew %v)",
		best, limit, fmtList(rates, "%.0f"), fmtList(rungP99, "%.2f"), fmtList(fit, "%.2f"), grew)
}

// sinkWriter is a reusable http.ResponseWriter for timing the handler.
type sinkWriter struct {
	h    http.Header
	buf  bytes.Buffer
	code int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *sinkWriter) WriteHeader(code int)        { w.code = code }

// traceHit times each layer of the hit path by calling its public
// function directly, after the timed phase. The calls are interleaved
// entry by entry so every layer sees the same conditions.
func (c *hitCluster) traceHit(r *runCtx, e2eMeanMs float64) error {
	budget := r.dur / 10
	ctx := context.Background()
	// The whole handler runs on the plan's owner, so no hop is involved;
	// requests and the writer are reused so only the handler allocates.
	w := &sinkWriter{h: http.Header{}}
	reqs := make([]*http.Request, len(c.pop))
	rds := make([]*bytes.Reader, len(c.pop))
	for i, e := range c.pop {
		rds[i] = bytes.NewReader(e.body)
		req, err := http.NewRequest(http.MethodPost, "/v1/plan", io.NopCloser(rds[i]))
		if err != nil {
			return err
		}
		reqs[i] = req
	}
	handlers := [2]http.Handler{c.svcs[0].Handler(), c.svcs[1].Handler()}
	bad := 0
	serveOne := func(i int) {
		e := &c.pop[i]
		rds[i].Reset(e.body)
		clear(w.h)
		w.buf.Reset()
		w.code = 0
		handlers[e.owner].ServeHTTP(w, reqs[i])
		if w.code != http.StatusOK && w.code != 0 || !bytes.Equal(w.buf.Bytes(), e.ref) {
			bad++
		}
	}
	for i := range c.pop {
		serveOne(i) // size the writer's buffer
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range c.pop {
		serveOne(i)
	}
	runtime.ReadMemStats(&m1)
	r.layer("http.hit_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(len(c.pop)))

	var server, decode, fingerprint, planHit, encode time.Duration
	var encBytes, calls int
	for start := time.Now(); time.Since(start) < budget; {
		for i := range c.pop {
			e := &c.pop[i]
			t0 := time.Now()
			serveOne(i)
			t1 := time.Now()
			var req serve.PlanRequest
			dec := json.NewDecoder(bytes.NewReader(e.body))
			dec.DisallowUnknownFields()
			if dec.Decode(&req) != nil || req.Options.Validate() != nil {
				bad++
			}
			if _, err := req.Model.Resolve(); err != nil {
				bad++
			}
			t2 := time.Now()
			if req.Fingerprint() != e.fp {
				bad++
			}
			t3 := time.Now()
			if _, _, cached, err := c.svcs[e.owner].Plan(ctx, req); err != nil || !cached {
				bad++
			}
			t4 := time.Now()
			b, err := json.Marshal(serve.PlanResponse{Fingerprint: e.fp, Cached: true, Plan: e.plan})
			t5 := time.Now()
			if err != nil {
				bad++
			}
			server += t1.Sub(t0)
			decode += t2.Sub(t1)
			fingerprint += t3.Sub(t2)
			planHit += t4.Sub(t3)
			encode += t5.Sub(t4)
			encBytes += len(b)
			calls++
		}
	}
	r.check(bad == 0, "plan-hit: %d layer probe calls failed or returned bodies that differ from the set-up plans", bad)
	per := func(d time.Duration) float64 { return us(d) / float64(calls) }
	r.layer("http.hit_server_us", per(server))
	r.layer("serve.decode_us", per(decode))
	r.layer("serve.fingerprint_us", per(fingerprint))
	r.layer("serve.plan_hit_us", per(planHit))
	r.layer("wire.encode_us", per(encode))
	r.layer("wire.encode_bytes", float64(encBytes)/float64(calls))

	// The hop: the same plans owned by member 1, entered once through
	// member 0 (forwarded) and once through member 1 (direct), one
	// request at a time.
	var fwd, direct []float64
	var buf bytes.Buffer
	start := time.Now()
	for time.Since(start) < budget {
		for _, e := range c.pop {
			if e.owner != 1 {
				continue
			}
			for k, url := range []string{c.srvs[0].url, c.srvs[1].url} {
				t := time.Now()
				resp, err := post(c.client, url, e.body, &buf)
				dt := us(time.Since(t))
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), e.ref) {
					bad++
				}
				if k == 0 {
					fwd = append(fwd, dt)
				} else {
					direct = append(direct, dt)
				}
			}
		}
	}
	r.check(bad == 0, "plan-hit: hop probe returned %d wrong bodies", bad)
	hop := median(fwd) - median(direct)
	r.layer("cluster.hop_us", hop)

	srv := per(server)
	layers := per(decode) + per(fingerprint) + per(planHit) + per(encode)
	r.say("accounting plan-hit (server): decode %.1f + fingerprint %.1f + plan_hit %.1f + encode %.1f = %.1f us vs http.hit_server_us %.1f us: unexplained %.1f us (%.0f%%)",
		per(decode), per(fingerprint), per(planHit), per(encode), layers, srv, srv-layers, 100*(srv-layers)/srv)
	share := r.layers["cluster.forwarded_share"]
	hopUs := share * hop
	e2eUs := e2eMeanMs * 1000
	r.say("accounting plan-hit (e2e): hit_server %.1f + forwarded_share %.3f x hop %.1f = %.1f us vs mean request latency %.1f us: unexplained (client, loopback, queueing) %.1f us (%.0f%%)",
		srv, share, hop, srv+hopUs, e2eUs, e2eUs-srv-hopUs, 100*(e2eUs-srv-hopUs)/e2eUs)
	r.say("tracing overhead plan-hit: none in the timed phase; the layer probes run after it on the same members")
	return nil
}

// isotonic returns the nondecreasing sequence closest to y in squared
// error (pool adjacent violators, equal weights). An infinite value
// pools to infinity.
func isotonic(y []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var blocks []block
	for _, v := range y {
		blocks = append(blocks, block{v, 1})
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(y))
	for _, b := range blocks {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}
