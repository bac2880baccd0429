package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/route"
	"topoopt/internal/traffic"
)

// refRoutes rebuilds res's route table the way TopologyFinder did when
// it ran Yen's k-shortest paths (k = 2) once per MP pair and installed
// the first: coin-change routes per ring group, then the per-pair MP
// loop, then shortest-path fill for the rest, all on res's topology.
func refRoutes(res *Result, dem traffic.Demand) (*route.Table, error) {
	n := res.Network.Hosts
	g := res.Network.G
	tab := route.NewTable(n)
	for _, gr := range res.Rings {
		k := len(gr.Members)
		if k < 2 {
			continue
		}
		cc, err := route.NewCoinChange(k, gr.Ps, false)
		if err != nil {
			return nil, err
		}
		for si := 0; si < k; si++ {
			for di := 0; di < k; di++ {
				if si == di {
					continue
				}
				src, dst := gr.Members[si], gr.Members[di]
				if tab.Get(src, dst) != nil {
					continue
				}
				local := cc.Route(si, di)
				nodes := make([]int, len(local))
				for i, li := range local {
					nodes[i] = gr.Members[li]
				}
				tab.Set(src, dst, nodes)
			}
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d || dem.MP[s][d] == 0 {
				continue
			}
			paths := route.KShortest(g, s, d, 2)
			if len(paths) == 0 {
				return nil, fmt.Errorf("core: no MP path %d -> %d", s, d)
			}
			if cur := tab.Get(s, d); cur == nil || len(paths[0]) < len(cur) {
				tab.Set(s, d, paths[0])
			}
		}
	}
	tab.FillShortestPaths(g)
	return tab, nil
}

// randomStrategy draws a valid strategy whose groups all lie in a random
// subset of the n servers: sharded tables on one or more hosts, and
// replicated layers over groups of any size, so demands mix full,
// subset and single-member groups with uncovered MP pairs.
func randomStrategy(rng *rand.Rand, m *model.Model, n int) parallel.Strategy {
	world := rng.Perm(n)[:1+rng.Intn(n)]
	s := parallel.Strategy{N: n, Layers: make([]parallel.LayerStrategy, len(m.Layers))}
	for i, l := range m.Layers {
		kind := parallel.Replicated
		if l.Shardable && rng.Intn(2) == 0 {
			kind = parallel.Sharded
		}
		size := 1 + rng.Intn(len(world))
		if kind == parallel.Sharded && rng.Intn(2) == 0 {
			size = 1
		}
		group := make([]int, size)
		for j, k := range rng.Perm(len(world))[:size] {
			group[j] = world[k]
		}
		s.Layers[i] = parallel.LayerStrategy{Kind: kind, Group: group}
	}
	return s
}

// TestTopologyFinderRoutesMatchReference pins TopologyFinder's whole
// route table, pair by pair, against the per-pair k-shortest loop its
// per-source shortest-path trees replaced, over the six §5.3 models at
// n ∈ {16, 32} and d ∈ {2, 4}, under the hybrid strategy and seeded
// random ones.
func TestTopologyFinderRoutesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range model.Sec53Models() {
		for _, n := range []int{16, 32} {
			for _, d := range []int{2, 4} {
				strategies := []parallel.Strategy{parallel.Hybrid(m, n)}
				for i := 0; i < 4; i++ {
					strategies = append(strategies, randomStrategy(rng, m, n))
				}
				for si, st := range strategies {
					name := fmt.Sprintf("%s n=%d d=%d strategy %d", m.Name, n, d, si)
					dem, err := traffic.FromStrategy(m, st, m.BatchPerGPU)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res, err := TopologyFinder(Config{N: n, D: d, LinkBW: 100e9}, dem)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := refRoutes(res, dem)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if got := res.Routes.PairCount(); got != want.PairCount() {
						t.Fatalf("%s: %d routed pairs, want %d", name, got, want.PairCount())
					}
					for s := 0; s < n; s++ {
						for dst := 0; dst < n; dst++ {
							if got, w := res.Routes.Get(s, dst), want.Get(s, dst); !slices.Equal(got, w) {
								t.Fatalf("%s: route %d->%d = %v, want %v", name, s, dst, got, w)
							}
						}
					}
				}
			}
		}
	}
}
