package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"topoopt"
	"topoopt/internal/core"
	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

// searchAcc accumulates the time and work of each search layer over
// replayed optimizations.
type searchAcc struct {
	topofinder, mcmc, estimate, simulate time.Duration
	searches, estimates, proposals       int64
	evals, evalNs                        atomic.Int64
}

// replay recomputes one optimization through the same public layer
// functions flexnet.CoOptimizeContext calls, in the same order and with
// the same arguments, timing each call. It returns the simulated
// iteration time, which must equal the plan's bit for bit.
func (a *searchAcc) replay(m *topoopt.Model, o topoopt.Options) (float64, error) {
	rounds := o.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	gpu := o.GPU
	if gpu.PeakFLOPS == 0 {
		gpu = model.A100
	}
	batch := o.BatchPerGPU
	if batch <= 0 {
		batch = m.BatchPerGPU
	}
	tfCfg := core.Config{N: o.Servers, D: o.Degree, LinkBW: o.LinkBandwidth, PrimeOnly: o.PrimeOnly}

	topology := func(st parallel.Strategy) (traffic.Demand, *flexnet.Fabric, float64, error) {
		dem, err := traffic.FromStrategy(m, st, batch)
		if err != nil {
			return dem, nil, 0, err
		}
		t0 := time.Now()
		tf, err := core.TopologyFinder(tfCfg, dem)
		a.topofinder += time.Since(t0)
		if err != nil {
			return dem, nil, 0, err
		}
		fab := flexnet.NewTopoOptFabric(tf)
		t0 = time.Now()
		cost := flexnet.EstimateIteration(fab, dem, st.MaxComputeTime(m, gpu, batch))
		a.estimate += time.Since(t0)
		a.estimates++
		return dem, fab, cost, nil
	}

	bestSt := parallel.Hybrid(m, o.Servers)
	bestDem, bestFab, bestCost, err := topology(bestSt)
	if err != nil {
		return 0, err
	}
	for round := 0; round < rounds; round++ {
		de := flexnet.NewDeltaEval(m, bestFab, batch, gpu)
		eval := func(s parallel.Strategy) float64 {
			t0 := time.Now()
			v := de.Eval(s)
			a.evalNs.Add(int64(time.Since(t0)))
			a.evals.Add(1)
			return v
		}
		last := 0
		t0 := time.Now()
		st, _ := flexnet.MCMCSearch(m, o.Servers, batch, eval, flexnet.MCMCConfig{
			Iters:       o.MCMCIters,
			Seed:        o.Seed + int64(round),
			Parallelism: o.Parallelism,
			Workers:     o.SearchWorkers,
			Progress:    func(done, _ int) { last = done },
			Warm:        o.WarmStart,
			Patience:    o.Patience,
		})
		a.mcmc += time.Since(t0)
		a.searches++
		a.proposals += int64(last)
		dem, fab, cost, err := topology(st)
		if err != nil {
			return 0, err
		}
		if cost >= bestCost {
			break // converged
		}
		bestSt, bestDem, bestFab, bestCost = st, dem, fab, cost
	}
	t0 := time.Now()
	it, err := flexnet.SimulateIteration(bestFab, bestDem, bestSt.MaxComputeTime(m, gpu, batch))
	a.simulate += time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("final simulation: %w", err)
	}
	return it.Total(), nil
}
