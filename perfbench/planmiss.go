package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"topoopt"
	"topoopt/internal/serve"
	"topoopt/internal/telemetry"
	"topoopt/internal/wal"
)

// optCall is one call the service made into its OptimizeFunc, recorded
// by the traced run with the exact options (warm start and patience
// included) the service handed it.
type optCall struct {
	m    *topoopt.Model
	o    topoopt.Options
	plan *topoopt.Plan
	dur  time.Duration
}

type optLog struct {
	mu    sync.Mutex
	calls []optCall
}

func (l *optLog) add(c optCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *optLog) take() []optCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.calls
	l.calls = nil
	return c
}

// missDaemon is one topooptd with a WAL store in its own directory.
type missDaemon struct {
	svc    *serve.Service
	srv    *server
	dir    string
	client *http.Client
	log    *optLog // non-nil when the OptimizeFunc is wrapped
}

func (d *missDaemon) close() {
	if d.srv != nil {
		d.srv.close()
	}
	if d.svc != nil {
		d.svc.Close()
	}
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// newMissDaemon starts a daemon over an empty store and plans one
// warm-up request per preset at 8 servers, a size the timed requests
// never use, so lazy initialization is paid here without seeding the
// similarity index the timed requests warm-start from.
func newMissDaemon(r *runCtx, traced bool) (*missDaemon, error) {
	dir, err := os.MkdirTemp("", "perfbench-wal-*")
	if err != nil {
		return nil, err
	}
	d := &missDaemon{dir: dir, client: newClient(1)}
	st, err := serve.OpenStore(dir)
	if err != nil {
		d.close()
		return nil, err
	}
	cfg := serve.Config{Store: st}
	if traced {
		d.log = &optLog{}
		cfg.Optimize = func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			t0 := time.Now()
			p, err := topoopt.OptimizeContext(ctx, m, o)
			if err == nil {
				d.log.add(optCall{m: m, o: o, plan: p, dur: time.Since(t0)})
			}
			return p, err
		}
	}
	d.svc = serve.New(cfg)
	if d.srv, err = listen(d.svc.Handler()); err != nil {
		d.close()
		return nil, err
	}
	var buf bytes.Buffer
	for _, p := range presets {
		if _, err := d.plan(planRequest(p, 8, 2, r.seed), &buf); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if d.log != nil {
		d.log.take()
	}
	return d, nil
}

// plan sends one request that must miss the cache and checks the
// response: it decodes, it is a fresh computation, and its fingerprint
// is the request's.
func (d *missDaemon) plan(req serve.PlanRequest, buf *bytes.Buffer) (*topoopt.Plan, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := post(d.client, d.srv.url, body, buf)
	if err != nil {
		return nil, err
	}
	var pr serve.PlanResponse
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.String())
	}
	if err := json.Unmarshal(buf.Bytes(), &pr); err != nil {
		return nil, fmt.Errorf("response does not decode: %w", err)
	}
	if fp := req.Fingerprint(); pr.Fingerprint != fp || pr.Cached || pr.Plan == nil || pr.Plan.PredictedIteration.Total() <= 0 {
		return nil, fmt.Errorf("response fingerprint %.12s (want %.12s), cached %v, plan present %v", pr.Fingerprint, fp, pr.Cached, pr.Plan != nil)
	}
	return pr.Plan, nil
}

// missStats is one closed-loop phase.
type missStats struct {
	latMs   []float64
	iters   []float64
	elapsed time.Duration
}

// missRun plans whole rounds of the 24 (preset, n, d) combinations, one
// request at a time, until dur has passed. Each round has its own seed,
// so every request is a new fingerprint; a round visits the combinations
// in an order drawn from the run's seed.
func (d *missDaemon) missRun(r *runCtx, dur time.Duration) missStats {
	rng := rand.New(rand.NewSource(r.seed))
	var (
		st  missStats
		buf bytes.Buffer
	)
	start := time.Now()
	for round := int64(0); time.Since(start) < dur; round++ {
		for _, k := range rng.Perm(24) {
			req := planRequest(presets[k/4], 16<<((k/2)%2), 2<<(k%2), r.seed*1_000_000+round)
			t0 := time.Now()
			p, err := d.plan(req, &buf)
			lat := time.Since(t0)
			r.attempt++
			if !r.check(err == nil, "plan-miss: %s n=%d d=%d: %v", req.Model.Preset, req.Options.Servers, req.Options.Degree, err) {
				r.failed++
				continue
			}
			st.latMs = append(st.latMs, ms(lat))
			st.iters = append(st.iters, p.PredictedIteration.Total())
		}
	}
	st.elapsed = time.Since(start)
	return st
}

func (s missStats) summary() (p50, p90, rate float64) {
	sorted := sortedCopy(s.latMs)
	return quantile(sorted, 0.5), quantile(sorted, 0.9), float64(len(s.latMs)) / s.elapsed.Seconds()
}

func runPlanMiss(r *runCtx) error {
	d, err := timedSetup(r, func() (*missDaemon, error) { return newMissDaemon(r, false) }, (*missDaemon).close)
	if err != nil {
		return err
	}
	defer d.close()
	dur := r.dur
	if r.trace {
		dur /= 2 // the traced run plans the same sequence twice
	}
	mem := startMemWatch()
	st := d.missRun(r, dur)
	r.memory(mem)
	p50, p90, rate := st.summary()
	r.e2e["latency_p50_ms"] = p50
	r.e2e["latency_tail_ms"] = p90
	r.e2e["throughput_per_s"] = rate
	r.e2e["plan_iters_per_s"] = geoMeanInverse(st.iters)
	r.say("miss_p50_ms %.3f ms, miss_p90_ms %.3f ms over %d plans (%d beyond p90); miss_plans_per_s %.3f; miss_iter_s %.6f s (geometric mean)",
		p50, p90, len(st.latMs), len(st.latMs)/10, rate, 1/r.e2e["plan_iters_per_s"])
	if !r.trace {
		return nil
	}
	t, err := newMissDaemon(r, true)
	if err != nil {
		return err
	}
	defer t.close()
	return traceMiss(r, t, dur, st)
}

// traceMiss reruns the request sequence against a daemon whose
// OptimizeFunc is wrapped, then replays every recorded call through the
// search layers and probes the WAL the run wrote.
func traceMiss(r *runCtx, t *missDaemon, dur time.Duration, untraced missStats) error {
	m0 := t.svc.Metrics()
	st := t.missRun(r, dur)
	m1 := t.svc.Metrics()
	calls := t.log.take()
	if !r.check(len(calls) == len(st.latMs), "plan-miss: %d optimizations for %d plans", len(calls), len(st.latMs)) {
		return nil
	}
	var opt, overhead []float64
	for i, c := range calls {
		opt = append(opt, ms(c.dur))
		overhead = append(overhead, st.latMs[i]-ms(c.dur))
	}
	r.layer("topoopt.optimize_ms", mean(opt))
	r.layer("serve.miss_overhead_ms", median(overhead))
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		r.layer("serve.stage."+s.String()+"_p50_ms", m1.Stages[s.String()].P50Seconds*1000)
	}
	misses := m1.CacheMisses - m0.CacheMisses
	warm := m1.WarmStarts - m0.WarmStarts
	improved := m1.WarmStartImproved - m0.WarmStartImproved
	r.layer("serve.warm_share", float64(warm)/float64(misses))
	if warm > 0 {
		r.layer("serve.warm_improved_share", float64(improved)/float64(warm))
	} else {
		r.absent["serve.warm_improved_share"] = "no search was warm-started"
	}

	var acc searchAcc
	for i, c := range calls {
		got, err := acc.replay(c.m, c.o)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		want := c.plan.PredictedIteration.Total()
		r.check(got == want && want == st.iters[i], "plan-miss: replay of plan %d predicts %v s, the service returned %v s (wire %v s)", i, got, want, st.iters[i])
	}
	plans := float64(len(calls))
	r.layer("core.topofinder_ms", ms(acc.topofinder)/plans)
	r.layer("flexnet.mcmc_ms", ms(acc.mcmc)/plans)
	r.layer("flexnet.evals_per_search", float64(acc.evals.Load())/float64(acc.searches))
	r.layer("flexnet.eval_us", us(time.Duration(acc.evalNs.Load()))/float64(acc.evals.Load()))
	r.layer("flexnet.estimate_us", us(acc.estimate)/float64(acc.estimates))
	r.layer("flexnet.proposals_per_plan", float64(acc.proposals)/plans)
	r.layer("netsim.simulate_ms", ms(acc.simulate)/plans)
	if err := probeWAL(r, t.dir); err != nil {
		return err
	}

	optMs := mean(opt)
	layers := r.layers["core.topofinder_ms"] + r.layers["flexnet.mcmc_ms"] + r.layers["netsim.simulate_ms"] +
		r.layers["flexnet.estimate_us"]*float64(acc.estimates)/plans/1000
	r.say("accounting plan-miss: mean request %.3f ms = optimize %.3f ms + serve %.3f ms; optimize vs topofinder %.3f + mcmc %.3f + estimate %.3f + simulate %.3f = %.3f ms (replayed): unexplained %.3f ms (%.0f%%)",
		mean(st.latMs), optMs, mean(st.latMs)-optMs, r.layers["core.topofinder_ms"], r.layers["flexnet.mcmc_ms"],
		r.layers["flexnet.estimate_us"]*float64(acc.estimates)/plans/1000, r.layers["netsim.simulate_ms"], layers, optMs-layers, 100*(optMs-layers)/optMs)
	u50, _, urate := untraced.summary()
	t50, _, trate := st.summary()
	r.say("tracing overhead plan-miss: traced p50 %.3f ms vs untraced %.3f ms (%+.1f%%); traced %.3f plans/s vs untraced %.3f (%+.1f%%)",
		t50, u50, 100*(t50-u50)/u50, trate, urate, 100*(trate-urate)/urate)
	return nil
}

// probeWAL times wal.Open over a copy of the run's store and re-appends
// its records into an empty store.
func probeWAL(r *runCtx, dir string) error {
	var opens []float64
	var recs []wal.Record
	for i := 0; i < 3; i++ {
		cp, err := os.MkdirTemp("", "perfbench-walcopy-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(cp)
		if err := copyDir(dir, cp); err != nil {
			return err
		}
		t0 := time.Now()
		s, err := wal.Open(cp)
		if err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t0)))
		recs = s.Records()
		s.Close()
	}
	r.layer("wal.replay_ms", median(opens))
	dst, err := os.MkdirTemp("", "perfbench-walappend-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dst)
	s, err := wal.Open(dst)
	if err != nil {
		return err
	}
	defer s.Close()
	t0 := time.Now()
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			return err
		}
	}
	if len(recs) > 0 {
		r.layer("wal.append_us", us(time.Since(t0))/float64(len(recs)))
	}
	r.say("wal: %d records replayed in %.3f ms (median of 3 opens)", len(recs), median(opens))
	return nil
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
