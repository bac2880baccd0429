package parallel

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"topoopt/internal/model"
)

// refServers is the map-and-sort Servers the optimized one must match.
func refServers(s Strategy) []int {
	seen := make(map[int]bool)
	for _, ls := range s.Layers {
		for _, v := range ls.Group {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// refComputeTimes recounts the consumers once per sharded layer, the
// formulation ComputeTimes must stay bit-identical to.
func refComputeTimes(s Strategy, m *model.Model, gpu model.GPU, batchPerGPU int) []float64 {
	times := make([]float64, s.N)
	for i, ls := range s.Layers {
		l := m.Layers[i]
		switch ls.Kind {
		case Replicated:
			t := gpu.LayerTime(l, batchPerGPU)
			for _, v := range ls.Group {
				times[v] += t
			}
		case Sharded:
			globalBatch := batchPerGPU * len(refServers(s))
			perHost := model.Layer{
				Name:              l.Name,
				Kind:              l.Kind,
				ParamBytes:        l.ParamBytes / int64(len(ls.Group)),
				ActBytesPerSample: l.ActBytesPerSample,
				FwdFLOPsPerSample: l.FwdFLOPsPerSample,
			}
			t := gpu.LayerTime(perHost, globalBatch/len(ls.Group))
			for _, v := range ls.Group {
				times[v] += t
			}
		}
	}
	return times
}

// randomStrategy draws a valid strategy whose groups all lie in a random
// subset of the n servers, so the consumer count ranges over 1..n.
func randomStrategy(rng *rand.Rand, m *model.Model, n int) Strategy {
	world := rng.Perm(n)[:1+rng.Intn(n)]
	s := Strategy{N: n, Layers: make([]LayerStrategy, len(m.Layers))}
	for i, l := range m.Layers {
		kind := Replicated
		if l.Shardable && rng.Intn(2) == 0 {
			kind = Sharded
		}
		size := 1 + rng.Intn(len(world))
		if kind == Sharded && rng.Intn(2) == 0 {
			size = 1 // single-host tables, the common MCMC state
		}
		group := make([]int, size)
		for j, k := range rng.Perm(len(world))[:size] {
			group[j] = world[k]
		}
		s.Layers[i] = LayerStrategy{Kind: kind, Group: group}
	}
	return s
}

func TestComputeTimesMatchesReference(t *testing.T) {
	presets := []struct {
		name string
		m    *model.Model
	}{
		{"dlrm", model.DLRMPreset(model.Sec53)},
		{"ncf", model.NCFPreset()},
		{"candle", model.CANDLEPreset(model.Sec53)},
	}
	rng := rand.New(rand.NewSource(1))
	for _, p := range presets {
		for _, n := range []int{1, 2, 7, 16, 32} {
			for trial := 0; trial < 40; trial++ {
				s := randomStrategy(rng, p.m, n)
				if err := s.Validate(p.m); err != nil {
					t.Fatalf("%s n=%d: generated invalid strategy: %v", p.name, n, err)
				}
				if got, want := s.Servers(), refServers(s); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d: Servers() = %v, want %v", p.name, n, got, want)
				}
				for _, batch := range []int{1, 64, p.m.BatchPerGPU} {
					got := s.ComputeTimes(p.m, model.A100, batch)
					want := refComputeTimes(s, p.m, model.A100, batch)
					if len(got) != len(want) {
						t.Fatalf("%s n=%d: %d times, want %d", p.name, n, len(got), len(want))
					}
					for v := range got {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("%s n=%d batch=%d server %d: %v, want %v",
								p.name, n, batch, v, got[v], want[v])
						}
					}
				}
			}
		}
	}
}
