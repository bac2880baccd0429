package flexnet

import (
	"fmt"
	"math/rand"
	"testing"

	"topoopt/internal/core"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// BenchmarkMCMCSearch measures strategy-search wall-clock at chain counts
// K ∈ {1, 4, 8} with a fixed total proposal budget, the configuration
// `make flexnet-bench` records into BENCH_flexnet.json. Workers defaults
// to min(K, GOMAXPROCS), so on a multi-core host K > 1 runs genuinely in
// parallel while returning the deterministic per-(seed, K) result.
//
// Two presets bound the spectrum: dlrm (§5.3 scale, 64 shardable
// embedding tables on 32 servers) is the search-heavy case parallel
// chains exist for; vgg16 has no shardable layers, so its "search" is
// the two start-state evaluations regardless of K — the paper's VGG
// strategies are pure-DP/hybrid (§5.1), and the benchmark documents that
// shape rather than hiding it.
func BenchmarkMCMCSearch(b *testing.B) {
	cases := []struct {
		name string
		m    *model.Model
		n    int
	}{
		{"vgg16", model.VGGPreset(model.Sec53), 16},
		{"dlrm", model.DLRMPreset(model.Sec53), 32},
	}
	for _, tc := range cases {
		fab := NewSwitchFabric(topo.IdealSwitch(tc.n, 400e9))
		eval := func(s parallel.Strategy) float64 {
			d, err := traffic.FromStrategy(tc.m, s, tc.m.BatchPerGPU)
			if err != nil {
				return inf
			}
			return EstimateIteration(fab, d, s.MaxComputeTime(tc.m, model.A100, tc.m.BatchPerGPU))
		}
		for _, k := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/K%d", tc.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MCMCSearch(tc.m, tc.n, 0, eval, MCMCConfig{
						Iters: 400, Seed: 1, Parallelism: k,
					})
				}
			})
		}
	}
}

// BenchmarkWarmReplan is the incremental-replanning headline `make
// warm-bench` records: the same near-miss replan run cold (from-scratch
// search, full budget, closure evaluator — the pre-incremental service
// path) and warm (similarity-index neighbor via MCMCConfig.Warm, the
// patience early exit, and the delta evaluator). The acceptance bar is
// warm ≥2x cheaper at equal budget with matched-or-better cost — pinned
// functionally by TestMCMCWarmPatienceEqualBudgetQuality, measured here.
func BenchmarkWarmReplan(b *testing.B) {
	m := model.DLRMPreset(model.Sec53)
	n := 32
	fab := NewSwitchFabric(topo.IdealSwitch(n, 400e9))
	eval := func(s parallel.Strategy) float64 {
		d, err := traffic.FromStrategy(m, s, m.BatchPerGPU)
		if err != nil {
			return inf
		}
		return EstimateIteration(fab, d, s.MaxComputeTime(m, model.A100, m.BatchPerGPU))
	}
	// The cached neighbor a near-miss request warm-starts from.
	neighbor, _ := MCMCSearch(m, n, 0, eval, MCMCConfig{Iters: 400, Seed: 99})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MCMCSearch(m, n, 0, eval, MCMCConfig{Iters: 400, Seed: 1})
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			de := NewDeltaEval(m, fab, m.BatchPerGPU, model.A100)
			MCMCSearch(m, n, 0, de.Eval, MCMCConfig{
				Iters: 400, Seed: 1,
				Warm: []parallel.Strategy{neighbor}, Patience: 3,
			})
		}
	})
}

// BenchmarkDeltaEval is one incremental evaluation of a single-layer MCMC
// move on the search-heavy case: dlrm (§5.3, 64 shardable tables) on a
// 32-server, degree-4 TopologyFinder fabric. The moves are a precomputed
// random walk that re-places one table on a random host per step, replayed
// forward and back so that every evaluation differs from the previous
// one in exactly one layer.
func BenchmarkDeltaEval(b *testing.B) {
	m := model.DLRMPreset(model.Sec53)
	n := 32
	dem, err := traffic.FromStrategy(m, parallel.Hybrid(m, n), m.BatchPerGPU)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := core.TopologyFinder(core.Config{N: n, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		b.Fatal(err)
	}
	fab := NewTopoOptFabric(tf)
	rng := rand.New(rand.NewSource(1))
	shardable := m.ShardableLayers()
	walk := []parallel.Strategy{parallel.Hybrid(m, n)}
	for len(walk) < 128 {
		s := walk[len(walk)-1].Clone()
		s.PlaceShard(shardable[rng.Intn(len(shardable))], rng.Intn(n))
		walk = append(walk, s)
	}
	for i := len(walk) - 2; i > 0; i-- {
		walk = append(walk, walk[i])
	}
	de := NewDeltaEval(m, fab, m.BatchPerGPU, model.A100)
	de.Eval(walk[len(walk)-1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		de.Eval(walk[i%len(walk)])
	}
}
