package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"time"

	"topoopt/internal/experiments"
	"topoopt/internal/fleet"
)

// experimentIDs mirrors the table in cmd/experiments/main.go, in its
// order; set-up checks the two still agree.
var experimentIDs = []struct {
	id  string
	run func(experiments.Params) string
}{
	{"fig01", func(experiments.Params) string { return experiments.Fig01DLRMHeatmaps() }},
	{"fig02", func(experiments.Params) string { return experiments.Fig02ProductionCDFs() }},
	{"fig03", experiments.Fig03NetworkOverhead},
	{"fig04", func(experiments.Params) string { return experiments.Fig04ProductionHeatmaps() }},
	{"tab01", func(experiments.Params) string { return experiments.Tab01OpticalTech() }},
	{"fig07", func(experiments.Params) string { return experiments.Fig07RingPermutations() }},
	{"fig09", func(experiments.Params) string { return experiments.Fig09TopoOptTopology() }},
	{"fig10", func(experiments.Params) string { return experiments.Fig10CostComparison() }},
	{"fig11", func(p experiments.Params) string { return experiments.FigDedicated(p, 4, false) }},
	{"fig12", experiments.Fig12AllToAll},
	{"fig13", experiments.Fig13BandwidthTax},
	{"fig14", experiments.Fig14PathLengthCDF},
	{"fig15", experiments.Fig15LinkTrafficCDF},
	{"fig16", experiments.Fig16SharedCluster},
	{"fig17", experiments.Fig17ReconfigLatency},
	{"fig19", func(experiments.Params) string { return experiments.Fig19TestbedThroughput() }},
	{"fig20", func(experiments.Params) string { return experiments.Fig20TimeToAccuracy() }},
	{"fig21", func(experiments.Params) string { return experiments.Fig21TestbedAllToAll() }},
	{"tab02", func(experiments.Params) string { return experiments.Tab02ComponentCosts() }},
	{"figA1", func(experiments.Params) string { return experiments.FigA1DoubleBinaryTree() }},
	{"fig27", func(p experiments.Params) string { return experiments.FigDedicated(p, 8, false) }},
	{"fig28", experiments.Fig28DegreeSensitivity},
	{"abl-selectperms", experiments.AblationSelectPerms},
	{"abl-mpdiscount", experiments.AblationMPDiscount},
	{"abl-coinchange", experiments.AblationCoinChange},
	{"abl-alternating", experiments.AblationAlternating},
	{"abl-mcmc", experiments.AblationMCMCBudget},
	{"abl-multiring", experiments.AblationMultiRing},
	{"ext-fattree", experiments.ExtTotientPermsFatTree},
	{"ext-moe", experiments.ExtMoETimeVaryingTraffic},
	{"ext-arrivals", experiments.ExtDynamicArrivals},
	{"ext-te", experiments.ExtRoutingTE},
}

var experimentEntry = regexp.MustCompile(`\{"([A-Za-z0-9-]+)",`)

// checkExperimentIDs fails when cmd/experiments lists a different set
// of experiments than this benchmark runs.
func checkExperimentIDs() error {
	src, err := os.ReadFile("cmd/experiments/main.go")
	if err != nil {
		return err
	}
	var listed, ours []string
	for _, m := range experimentEntry.FindAllStringSubmatch(string(src), -1) {
		listed = append(listed, m[1])
	}
	for _, e := range experimentIDs {
		ours = append(ours, e.id)
	}
	if !slices.Equal(listed, ours) {
		return fmt.Errorf("cmd/experiments lists %v, the benchmark runs %v", listed, ours)
	}
	return nil
}

// reproTask is one unit of the reproduction: an experiment or one
// scenario's fleet sweep. Its output is hashed and compared with the
// digest stored in spec.json.
type reproTask struct {
	id    string
	sweep bool
	run   func() ([]byte, error)
}

// reproSetup holds the fleet reference runs: replica 0 of each sweep
// must reproduce them, and their jobs' plans give the quality metric.
type reproSetup struct {
	ref   map[string]fleet.Summary
	iters []float64
}

func newReproSetup() (reproSetup, error) {
	s := reproSetup{ref: map[string]fleet.Summary{}}
	if err := checkExperimentIDs(); err != nil {
		return s, err
	}
	for _, name := range fleet.Scenarios() {
		spec, err := fleet.Scenario(name)
		if err != nil {
			return s, err
		}
		res, err := fleet.Run(context.Background(), spec)
		if err != nil {
			return s, fmt.Errorf("fleet %s: %w", name, err)
		}
		s.ref[name] = res.Summary
		for _, j := range res.Jobs {
			if j.IterS > 0 {
				s.iters = append(s.iters, j.IterS)
			}
		}
	}
	return s, nil
}

func (r *runCtx) reproTasks(setup reproSetup) []reproTask {
	var tasks []reproTask
	for _, e := range experimentIDs {
		run := e.run
		tasks = append(tasks, reproTask{id: e.id, run: func() ([]byte, error) {
			// cmd/experiments prints each figure with Println.
			return []byte(run(experiments.Quick) + "\n"), nil
		}})
	}
	for _, name := range fleet.Scenarios() {
		name := name
		tasks = append(tasks, reproTask{id: "sweep-" + name, sweep: true, run: func() ([]byte, error) {
			spec, err := fleet.Scenario(name)
			if err != nil {
				return nil, err
			}
			// One worker: a sweep runs on one thread like every
			// experiment, so neighbours busy on the other vCPU do not
			// slow it. Its output does not depend on the worker count.
			spec.SearchWorkers = 1
			res, err := fleet.Sweep(context.Background(), spec, r.spec.SweepReplicas, nil)
			if err != nil {
				return nil, err
			}
			if len(res.ReplicaSummaries) == 0 || res.ReplicaSummaries[0].Summary != setup.ref[name] {
				return nil, fmt.Errorf("replica 0 of the %s sweep differs from the plain fleet run", name)
			}
			return json.Marshal(res)
		}})
	}
	return tasks
}

func runRepro(r *runCtx) error {
	setup, err := timedSetup(r, newReproSetup, func(reproSetup) {})
	if err != nil {
		return err
	}
	r.e2e["plan_iters_per_s"] = geoMeanInverse(setup.iters)
	// The reproduction's inputs are fixed by the paper, so the seed
	// changes nothing: every pass runs the tasks in table order. Each
	// task starts on a collected heap, as `cmd/experiments -only <id>` in
	// a fresh process would, so no task pays for its predecessor's
	// garbage.
	//
	// A task's time is its fastest pass. The host's speed can drift by a
	// third over minutes when neighbours on a shared machine are busy;
	// each task is sampled once per pass across the whole run, so its
	// fastest sample is the one least slowed by them, while a slower
	// program is slower in every pass.
	tasks := r.reproTasks(setup)
	taskMs := map[string][]float64{}
	var suite, sweeps []float64
	mem := startMemWatch()
	start := time.Now()
	// Whole passes only, at least three, so every task has the same
	// weight.
	for pass := 0; pass < 3 || time.Since(start) < r.dur; pass++ {
		var suiteMs, sweepMs float64
		outs := make([][]byte, len(tasks))
		for k, t := range tasks {
			runtime.GC()
			t0 := time.Now()
			out, err := t.run()
			d := time.Since(t0)
			r.attempt++
			if err == nil {
				sum := sha256.Sum256(out)
				if got, want := hex.EncodeToString(sum[:]), r.spec.ReproDigests[t.id]; got != want {
					err = fmt.Errorf("output sha256 %s, stored %s", got, want)
				}
			}
			if !r.check(err == nil, "repro: %s: %v", t.id, err) {
				r.failed++
				continue
			}
			outs[k] = out
			taskMs[t.id] = append(taskMs[t.id], ms(d))
			if t.sweep {
				sweepMs += ms(d)
			} else {
				suiteMs += ms(d)
			}
		}
		// The experiments' outputs in table order are what cmd/experiments
		// prints.
		h := sha256.New()
		for k := range experimentIDs {
			h.Write(outs[k])
		}
		got := hex.EncodeToString(h.Sum(nil))
		r.check(got == r.spec.SuiteDigest, "repro: suite output sha256 %s, stored %s", got, r.spec.SuiteDigest)
		suite = append(suite, suiteMs)
		sweeps = append(sweeps, sweepMs)
	}
	r.memory(mem)
	// The p50 is the suite's time with each experiment at its fastest
	// pass; the tail is the slowest experiment's fastest time, the
	// regeneration latency of the slowest figure; the throughput is tasks
	// per second at those times.
	best := map[string]float64{}
	var suiteBest, allBest, tail float64
	slowest := ""
	for _, t := range tasks {
		if len(taskMs[t.id]) == 0 {
			continue // every pass failed the task's check
		}
		v := slices.Min(taskMs[t.id])
		best[t.id] = v
		allBest += v
		if t.sweep {
			continue
		}
		suiteBest += v
		if v > tail {
			tail, slowest = v, t.id
		}
	}
	r.e2e["latency_p50_ms"] = suiteBest
	r.e2e["latency_tail_ms"] = tail
	r.e2e["throughput_per_s"] = float64(len(tasks)) / (allBest / 1000)
	r.say("repro_s %.4f s at each experiment's fastest pass, %.4f s in the median pass; sweep_s %.4f s, %.4f s (%d passes of %d experiments and %d sweeps of %d replicas); slowest experiment %s %.3f ms",
		suiteBest/1000, median(suite)/1000, (allBest-suiteBest)/1000, median(sweeps)/1000,
		len(suite), len(experimentIDs), len(tasks)-len(experimentIDs), r.spec.SweepReplicas, slowest, tail)
	if !r.trace {
		return nil
	}
	var layerSum float64
	for _, e := range experimentIDs {
		v := median(taskMs[e.id])
		r.layer("experiments."+e.id+"_ms", best[e.id])
		layerSum += v
	}
	r.layer("fleet.sweep_ms", allBest-suiteBest)
	r.say("accounting repro: sum of per-experiment medians %.1f ms vs the median pass's suite %.1f ms: unexplained %.1f ms (%.1f%%); the layers and repro_s read each task's fastest pass",
		layerSum, median(suite), median(suite)-layerSum, 100*(median(suite)-layerSum)/median(suite))
	r.say("tracing overhead repro: none; the per-experiment spans are the task timers every run takes")
	return nil
}
