// Package traffic derives per-iteration network demand from a model and a
// parallelization strategy: the AllReduce groups (mutable traffic, §4.3)
// and the MP transfer matrix (immutable traffic). It is the bridge between
// the Comp.×Comm. plane and the Comm.×Topo. plane of the alternating
// optimization.
package traffic

import (
	"sort"
	"strconv"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
)

// Matrix is a server-to-server byte count matrix; Matrix[s][d] is the
// traffic s sends d per training iteration.
type Matrix [][]int64

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) Matrix {
	m := make(Matrix, n)
	rows := make([]int64, n*n)
	for i := range m {
		m[i], rows = rows[:n:n], rows[n:]
	}
	return m
}

// N returns the dimension.
func (m Matrix) N() int { return len(m) }

// Add accumulates bytes from s to d. Self-traffic is ignored (local memory
// access, not network).
func (m Matrix) Add(s, d int, bytes int64) {
	if s == d {
		return
	}
	m[s][d] += bytes
}

// Total returns the sum of all entries.
func (m Matrix) Total() int64 {
	var t int64
	for _, row := range m {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Max returns the largest single entry.
func (m Matrix) Max() int64 {
	var mx int64
	for _, row := range m {
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}

// AddAll accumulates other into m.
func (m Matrix) AddAll(other Matrix) {
	if len(other) != len(m) {
		panic("traffic: matrix size mismatch")
	}
	for s := range other {
		for d, v := range other[s] {
			m[s][d] += v
		}
	}
}

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	c := NewMatrix(len(m))
	c.AddAll(m)
	return c
}

// Group is one AllReduce group: the servers that hold replicas of the same
// weights, and the gradient bytes they must synchronize each iteration.
// JSON tags define the public wire format (topoopt's Plan serialization).
type Group struct {
	Members []int `json:"members"`
	Bytes   int64 `json:"bytes"`
}

// Demand is the traffic demand of one training job for one iteration: the
// TopologyFinder inputs T_AllReduce (as groups, since AllReduce traffic is
// mutable) and T_MP (as a fixed matrix, since MP traffic is not).
type Demand struct {
	N      int     `json:"n"`
	Groups []Group `json:"groups"`
	MP     Matrix  `json:"mp"`
}

// TotalAllReduceBytes returns the logical AllReduce volume: each group
// member sends 2·(k-1)/k · Bytes under ring-AllReduce, so the network
// volume is Members × that; here we report the paper's "sum(T_reduce)"
// convention — total bytes crossing the network.
func (d Demand) TotalAllReduceBytes() int64 {
	var t int64
	for _, g := range d.Groups {
		k := int64(len(g.Members))
		if k < 2 {
			continue
		}
		t += k * ringPerNodeBytes(g.Bytes, k)
	}
	return t
}

// TotalMPBytes returns the MP matrix volume.
func (d Demand) TotalMPBytes() int64 { return d.MP.Total() }

// ringPerNodeBytes is the per-member ring-AllReduce send volume:
// 2·(k-1)/k · S (reduce-scatter + all-gather).
func ringPerNodeBytes(s int64, k int64) int64 {
	if k < 2 {
		return 0
	}
	return 2 * (k - 1) * s / k
}

// RingPerNodeBytes exposes the ring-AllReduce per-node volume for
// collectives and tests.
func RingPerNodeBytes(s int64, k int) int64 { return ringPerNodeBytes(s, int64(k)) }

// FromStrategy derives the demand of running model m with strategy st at
// the given per-GPU batch size.
//
// Replicated layers with identical groups are merged into one AllReduce
// group whose Bytes is their summed parameter size. Sharded layers
// contribute MP traffic: each shard host exchanges the layer's activation
// (forward) and its gradient (backward) with every consumer server, i.e.
// every server participating in the surrounding data-parallel execution.
func FromStrategy(m *model.Model, st parallel.Strategy, batchPerGPU int) (Demand, error) {
	if err := st.Validate(m); err != nil {
		return Demand{}, err
	}
	d := Demand{N: st.N, MP: NewMatrix(st.N)}
	// Consumers of sharded layers are the job's servers, not the whole
	// cluster: shard-scoped strategies (parallel.HybridOn) only touch
	// their shard.
	consumers := st.Servers()
	groupBytes := make(map[string]*Group)
	for i, ls := range st.Layers {
		l := m.Layers[i]
		switch ls.Kind {
		case parallel.Replicated:
			if len(ls.Group) < 2 || l.ParamBytes == 0 {
				continue
			}
			key := groupKey(ls.Group)
			g, ok := groupBytes[key]
			if !ok {
				g = &Group{Members: append([]int(nil), ls.Group...)}
				sort.Ints(g.Members)
				groupBytes[key] = g
			}
			g.Bytes += l.ParamBytes
		case parallel.Sharded:
			// Every consumer (all servers) sends lookup indices (negligible)
			// and receives activations; backward reverses the flow with
			// gradients of the same size. Per consumer per direction:
			// batchPerGPU × ActBytesPerSample ÷ #shards.
			shards := int64(len(ls.Group))
			per := int64(batchPerGPU) * l.ActBytesPerSample / shards
			for _, h := range ls.Group {
				for _, c := range consumers {
					if c == h {
						continue
					}
					d.MP.Add(h, c, per) // forward activations
					d.MP.Add(c, h, per) // backward gradients
				}
			}
		}
	}
	keys := make([]string, 0, len(groupBytes))
	for k := range groupBytes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.Groups = append(d.Groups, *groupBytes[k])
	}
	return d, nil
}

// groupKey renders the sorted members as fmt.Sprint would ("[a b c]"),
// so the sorted key order, and with it Demand.Groups, is fixed.
func groupKey(g []int) string {
	s := append([]int(nil), g...)
	sort.Ints(s)
	b := make([]byte, 0, 2+4*len(s))
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(append(b, ']'))
}

// CombinedMatrix renders the demand into one concrete traffic matrix,
// using consecutive-ID ring-AllReduce (permutation +1) for every group —
// the "common AllReduce pattern" heatmaps of Figures 1, 4 and 8a. Use the
// collective package for permuted or multi-ring renderings.
func (d Demand) CombinedMatrix() Matrix {
	tm := d.MP.Clone()
	for _, g := range d.Groups {
		k := len(g.Members)
		if k < 2 {
			continue
		}
		per := ringPerNodeBytes(g.Bytes, int64(k))
		for i, s := range g.Members {
			tm.Add(s, g.Members[(i+1)%k], per)
		}
	}
	return tm
}
