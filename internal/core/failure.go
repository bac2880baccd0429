package core

import (
	"fmt"

	"topoopt/internal/graph"
	"topoopt/internal/route"
	"topoopt/internal/topo"
)

// FailLink handles a fiber failure (§7, "Handling failures"): the failed
// directed link is removed from the topology and all routes are
// recomputed over the survivors. When the failed link belonged to an
// AllReduce ring and borrowMP is set, one MP link between the same pair
// (if any) is conceptually re-dedicated to the ring — in graph terms the
// parallel link already carries the traffic, so recovery amounts to
// rerouting; if no path remains between the endpoints the failure is
// reported as partitioning.
//
// It returns a new Result sharing the demand-independent fields; the
// original is left untouched so the caller can compare before/after.
func FailLink(res *Result, from, to int, borrowMP bool) (*Result, error) {
	g := res.Network.G
	// Find one directed edge from->to to fail.
	failed := -1
	for _, id := range g.Out(from) {
		if g.Edge(id).To == to {
			failed = id
			break
		}
	}
	if failed == -1 {
		return nil, fmt.Errorf("core: no link %d -> %d to fail", from, to)
	}
	// Rebuild the graph without the failed edge.
	ng := graph.New(g.N())
	for _, e := range g.Edges() {
		if e.ID == failed {
			continue
		}
		ng.AddEdge(e.From, e.To, e.Cap)
	}
	if !borrowMP && !ng.Connected() {
		return nil, fmt.Errorf("core: failure of %d->%d partitions the fabric", from, to)
	}
	if borrowMP && !ng.Connected() {
		// Permanent-failure path: reconfigure to swap ports — reconnect
		// the components with a fresh duplex link on the failed pair's
		// spare interfaces (the paper's patch-panel swap).
		ng.AddEdge(from, to, res.Network.G.Edge(failed).Cap)
		ng.AddEdge(to, from, res.Network.G.Edge(failed).Cap)
	}
	nres := &Result{
		Network:         &topo.Network{G: ng, Hosts: res.Network.Hosts, ForwardingHosts: true, Name: res.Network.Name},
		Rings:           res.Rings,
		DegreeAllReduce: res.DegreeAllReduce,
		DegreeMP:        res.DegreeMP,
	}
	// Recompute routing: keep coin-change routes that avoid the failed
	// link, reroute the rest by shortest path on the degraded fabric.
	nres.Routes = route.NewTable(ng.N())
	for s := 0; s < ng.N(); s++ {
		for d := 0; d < ng.N(); d++ {
			if s == d {
				continue
			}
			old := res.Routes.Get(s, d)
			if old != nil && !routeUses(old, from, to) && routeValid(ng, old) {
				nres.Routes.Set(s, d, old)
			}
		}
	}
	nres.Routes.FillShortestPaths(ng)
	// Verify full reachability.
	for s := 0; s < ng.N(); s++ {
		for d := 0; d < ng.N(); d++ {
			if s != d && nres.Routes.Get(s, d) == nil {
				return nil, fmt.Errorf("core: no route %d->%d after failure", s, d)
			}
		}
	}
	return nres, nil
}

func routeUses(nodes []int, from, to int) bool {
	for i := 0; i+1 < len(nodes); i++ {
		if nodes[i] == from && nodes[i+1] == to {
			return true
		}
	}
	return false
}

func routeValid(g *graph.Graph, nodes []int) bool {
	for i := 0; i+1 < len(nodes); i++ {
		if !g.HasEdge(nodes[i], nodes[i+1]) {
			return false
		}
	}
	return true
}

// RingHealth reports, for each ring of the result, how many of its edges
// are still present in the (possibly degraded) topology. A ring with
// missing edges is "inefficient for AllReduce traffic" (§7) and should be
// rebuilt by reconfiguration.
func RingHealth(res *Result) []float64 {
	out := make([]float64, len(res.Rings))
	for i, gr := range res.Rings {
		k := len(gr.Members)
		if k < 2 {
			out[i] = 1
			continue
		}
		total, present := 0, 0
		for _, p := range gr.Ps {
			for j := 0; j < k; j++ {
				total++
				if res.Network.G.HasEdge(gr.Members[j], gr.Members[(j+p)%k]) {
					present++
				}
			}
		}
		if total == 0 {
			out[i] = 1
		} else {
			out[i] = float64(present) / float64(total)
		}
	}
	return out
}
