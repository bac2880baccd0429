// Package parallel represents DNN parallelization strategies and device
// placements — the state of the paper's Comp.×Comm. plane. A strategy
// assigns every model layer either replicated execution (data parallelism
// over a replica group, requiring gradient AllReduce) or sharded execution
// (model parallelism over one or more hosts, requiring MP transfers of
// activations and gradients).
package parallel

import (
	"encoding/binary"
	"fmt"

	"topoopt/internal/model"
)

// Kind distinguishes how a layer is parallelized.
type Kind int

const (
	// Replicated: the layer's weights are copied on every member of
	// Group; gradients are AllReduced across the group each iteration.
	Replicated Kind = iota
	// Sharded: the layer's weights are partitioned over the hosts in
	// Group; activations/gradients travel between hosts and consumers
	// (MP transfers).
	Sharded
)

func (k Kind) String() string {
	if k == Replicated {
		return "replicated"
	}
	return "sharded"
}

// LayerStrategy is the parallelization decision for one layer. JSON tags
// define the public wire format (topoopt's Plan serialization).
type LayerStrategy struct {
	Kind  Kind  `json:"kind"`
	Group []int `json:"group"` // replica group (Replicated) or shard hosts (Sharded)
}

// Strategy is a full parallelization strategy + device placement for a job
// on N servers. Layers is parallel to the model's layer slice.
type Strategy struct {
	N      int             `json:"n"`
	Layers []LayerStrategy `json:"layers"`
}

// Validate checks structural consistency against the model.
func (s Strategy) Validate(m *model.Model) error {
	if len(s.Layers) != len(m.Layers) {
		return fmt.Errorf("parallel: %d layer strategies for %d layers", len(s.Layers), len(m.Layers))
	}
	for i, ls := range s.Layers {
		if len(ls.Group) == 0 {
			return fmt.Errorf("parallel: layer %d (%s) has empty group", i, m.Layers[i].Name)
		}
		seen := make(map[int]bool)
		for _, v := range ls.Group {
			if v < 0 || v >= s.N {
				return fmt.Errorf("parallel: layer %d places server %d outside [0,%d)", i, v, s.N)
			}
			if seen[v] {
				return fmt.Errorf("parallel: layer %d repeats server %d", i, v)
			}
			seen[v] = true
		}
		if ls.Kind == Sharded && !m.Layers[i].Shardable {
			return fmt.Errorf("parallel: layer %d (%s) is not shardable", i, m.Layers[i].Name)
		}
	}
	return nil
}

// Fingerprint returns a compact key that uniquely identifies the strategy
// (N plus every layer's kind and group, order-sensitive). MCMC search uses
// it to memoize evaluator results, so revisiting a state costs a map
// lookup instead of a re-simulation.
func (s Strategy) Fingerprint() string {
	var b []byte
	b = binary.AppendVarint(b, int64(s.N))
	for _, ls := range s.Layers {
		b = binary.AppendVarint(b, int64(ls.Kind))
		b = binary.AppendVarint(b, int64(len(ls.Group)))
		for _, v := range ls.Group {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	return string(b)
}

// Clone returns a deep copy (for MCMC proposals).
func (s Strategy) Clone() Strategy {
	c := Strategy{N: s.N, Layers: make([]LayerStrategy, len(s.Layers))}
	for i, ls := range s.Layers {
		c.Layers[i] = LayerStrategy{Kind: ls.Kind, Group: append([]int(nil), ls.Group...)}
	}
	return c
}

// IsPureDataParallel reports whether every layer is replicated over all N
// servers.
func (s Strategy) IsPureDataParallel() bool {
	for _, ls := range s.Layers {
		if ls.Kind != Replicated || len(ls.Group) != s.N {
			return false
		}
	}
	return true
}

// ShardedLayers returns indices of layers using model parallelism.
func (s Strategy) ShardedLayers() []int {
	var idx []int
	for i, ls := range s.Layers {
		if ls.Kind == Sharded {
			idx = append(idx, i)
		}
	}
	return idx
}

// Servers returns the distinct servers the strategy touches, ascending —
// the job's world. Full-cluster strategies return [0..N); shard-scoped
// strategies (HybridOn) return the shard members.
func (s Strategy) Servers() []int {
	seen := make([]bool, s.N)
	count := 0
	for _, ls := range s.Layers {
		for _, v := range ls.Group {
			if !seen[v] {
				seen[v] = true
				count++
			}
		}
	}
	out := make([]int, 0, count)
	for v, ok := range seen {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// allServers returns [0, 1, …, n-1].
func allServers(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// DataParallel builds the pure data-parallel strategy: every layer
// replicated over all n servers.
func DataParallel(m *model.Model, n int) Strategy {
	s := Strategy{N: n, Layers: make([]LayerStrategy, len(m.Layers))}
	for i := range m.Layers {
		s.Layers[i] = LayerStrategy{Kind: Replicated, Group: allServers(n)}
	}
	return s
}

// Hybrid builds the standard DLRM-style hybrid strategy: every shardable
// layer is placed on a single server, round-robin with the given stride
// (the paper's §2.1 example uses stride ≈ n / #tables, e.g. E0→S0, E1→S3,
// E2→S8, E3→S13 for 4 tables on 16 servers); everything else is replicated
// over all servers.
func Hybrid(m *model.Model, n int) Strategy {
	s := DataParallel(m, n)
	shardable := m.ShardableLayers()
	if len(shardable) == 0 {
		return s
	}
	for j, li := range shardable {
		var host int
		if len(shardable) >= n {
			host = j % n
		} else {
			host = (j * n) / len(shardable)
		}
		s.Layers[li] = LayerStrategy{Kind: Sharded, Group: []int{host}}
	}
	return s
}

// HybridOn builds the hybrid strategy scoped to a subset of servers (a
// cluster shard, Appendix C): replicated layers use exactly the shard
// members as their AllReduce group; shardable layers are placed
// round-robin on shard members. N remains the full cluster size so shard
// strategies compose on a shared fabric.
func HybridOn(m *model.Model, n int, members []int) Strategy {
	s := Strategy{N: n, Layers: make([]LayerStrategy, len(m.Layers))}
	grp := append([]int(nil), members...)
	for i := range m.Layers {
		s.Layers[i] = LayerStrategy{Kind: Replicated, Group: grp}
	}
	shardable := m.ShardableLayers()
	k := len(members)
	for j, li := range shardable {
		var host int
		if len(shardable) >= k {
			host = members[j%k]
		} else {
			host = members[(j*k)/len(shardable)]
		}
		s.Layers[li] = LayerStrategy{Kind: Sharded, Group: []int{host}}
	}
	return s
}

// PlaceShard overrides the placement of layer li to the given hosts,
// marking it sharded.
func (s *Strategy) PlaceShard(li int, hosts ...int) {
	s.Layers[li] = LayerStrategy{Kind: Sharded, Group: append([]int(nil), hosts...)}
}

// Replicate marks layer li replicated over the given group (all servers if
// empty).
func (s *Strategy) Replicate(li int, group ...int) {
	if len(group) == 0 {
		group = allServers(s.N)
	}
	s.Layers[li] = LayerStrategy{Kind: Replicated, Group: append([]int(nil), group...)}
}

// ComputeTimes returns the per-server compute time (seconds) of one
// iteration under the strategy: replicated layers cost their roofline time
// at the local batch on every group member; sharded layers cost their
// lookup/compute for the whole global batch divided across shard hosts.
func (s Strategy) ComputeTimes(m *model.Model, gpu model.GPU, batchPerGPU int) []float64 {
	times := make([]float64, s.N)
	consumers := 0 // len(s.Servers()), counted at the first sharded layer
	for i, ls := range s.Layers {
		l := m.Layers[i]
		switch ls.Kind {
		case Replicated:
			t := gpu.LayerTime(l, batchPerGPU)
			for _, v := range ls.Group {
				times[v] += t
			}
		case Sharded:
			// Each shard host serves the global batch of every consumer;
			// roofline on activation traffic plus its share of the weights.
			if consumers == 0 {
				consumers = len(s.Servers())
			}
			globalBatch := batchPerGPU * consumers
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

// MaxComputeTime is the straggler compute time — the iteration's compute
// component under bulk-synchronous execution.
func (s Strategy) MaxComputeTime(m *model.Model, gpu model.GPU, batchPerGPU int) float64 {
	max := 0.0
	for _, t := range s.ComputeTimes(m, gpu, batchPerGPU) {
		if t > max {
			max = t
		}
	}
	return max
}
