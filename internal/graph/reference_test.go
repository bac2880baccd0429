package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The ref* functions below are a verbatim copy of the container/heap
// Dijkstra and Yen's implementation that KShortestPaths, Dijkstra and
// WeightedShortestPath must keep matching path for path, including the
// order of equal-cost paths and the choice among equal-cost parents.

type refItem struct {
	node int
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refDijkstra(g *Graph, src int, w WeightFunc) (dist []float64, parentEdge []int) {
	g.checkNode(src)
	const unreached = -1.0
	dist = make([]float64, g.n)
	parentEdge = make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = unreached
		parentEdge[i] = -1
	}
	dist[src] = 0
	h := &refHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, id := range g.out[v] {
			e := g.edges[id]
			nd := it.dist + w(e)
			if dist[e.To] < 0 || nd < dist[e.To] {
				dist[e.To] = nd
				parentEdge[e.To] = id
				heap.Push(h, refItem{e.To, nd})
			}
		}
	}
	return dist, parentEdge
}

func refWeightedShortestPath(g *Graph, src, dst int, w WeightFunc) Path {
	g.checkNode(dst)
	if src == dst {
		return Path{}
	}
	dist, parent := refDijkstra(g, src, w)
	if dist[dst] < 0 {
		return nil
	}
	var rev []int
	for v := dst; v != src; {
		id := parent[v]
		rev = append(rev, id)
		v = g.edges[id].From
	}
	p := make(Path, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	return p
}

func refKShortestPaths(g *Graph, src, dst, k int, w WeightFunc) []Path {
	if k <= 0 {
		return nil
	}
	first := refWeightedShortestPath(g, src, dst, w)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	costOf := func(p Path) float64 {
		c := 0.0
		for _, id := range p {
			c += w(g.edges[id])
		}
		return c
	}
	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevNodes := prev.Nodes(g, src)
		for i := 0; i < len(prev); i++ {
			spurNode := prevNodes[i]
			rootPath := prev[:i]
			banned := make(map[int]bool)
			for _, p := range paths {
				if len(p) > i && pathPrefixEq(p, rootPath) {
					banned[p[i]] = true
				}
			}
			bannedNode := make(map[int]bool)
			for _, v := range prevNodes[:i] {
				bannedNode[v] = true
			}
			wf := func(e Edge) float64 {
				if banned[e.ID] || bannedNode[e.To] || bannedNode[e.From] {
					return -1
				}
				return w(e)
			}
			spur := refFilteredShortestPath(g, spurNode, dst, wf)
			if spur == nil {
				continue
			}
			total := make(Path, 0, len(rootPath)+len(spur))
			total = append(total, rootPath...)
			total = append(total, spur...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if costOf(candidates[i]) < costOf(candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func refFilteredShortestPath(g *Graph, src, dst int, w WeightFunc) Path {
	if src == dst {
		return Path{}
	}
	dist := make([]float64, g.n)
	parent := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	h := &refHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, id := range g.out[v] {
			e := g.edges[id]
			c := w(e)
			if c < 0 {
				continue
			}
			nd := it.dist + c
			if dist[e.To] < 0 || nd < dist[e.To] {
				dist[e.To] = nd
				parent[e.To] = id
				heap.Push(h, refItem{e.To, nd})
			}
		}
	}
	if dist[dst] < 0 {
		return nil
	}
	var rev []int
	for v := dst; v != src; {
		id := parent[v]
		rev = append(rev, id)
		v = g.edges[id].From
	}
	p := make(Path, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	return p
}

// tieGraph builds a random multigraph with parallel edges and small integer
// capacities, so that costs under capWeight tie often.
func tieGraph(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		g.AddEdge(from, to, float64(rng.Intn(4)))
		if rng.Intn(3) == 0 {
			g.AddEdge(from, to, float64(rng.Intn(4))) // parallel link
		}
	}
	return g
}

// capWeight uses an edge's capacity as its cost: 0..3, zero included.
func capWeight(e Edge) float64 { return e.Cap }

// checkAgainstReference fails t unless every query on g answers exactly
// like the reference implementation.
func checkAgainstReference(t *testing.T, g *Graph, src, dst, k int, w WeightFunc) {
	t.Helper()
	got := g.KShortestPaths(src, dst, k, w)
	want := refKShortestPaths(g, src, dst, k, w)
	if !slices.EqualFunc(got, want, equalPath) {
		t.Fatalf("KShortestPaths(%d, %d, %d) on %v\n got %v\nwant %v", src, dst, k, g.edges, got, want)
	}
	if got, want := g.WeightedShortestPath(src, dst, w), refWeightedShortestPath(g, src, dst, w); !equalPath(got, want) {
		t.Fatalf("WeightedShortestPath(%d, %d) on %v\n got %v\nwant %v", src, dst, g.edges, got, want)
	}
	dist, parent := g.Dijkstra(src, w)
	wantDist, wantParent := refDijkstra(g, src, w)
	for v := range dist {
		if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) || parent[v] != wantParent[v] {
			t.Fatalf("Dijkstra(%d) on %v node %d: (%v, %d), want (%v, %d)",
				src, g.edges, v, dist[v], parent[v], wantDist[v], wantParent[v])
		}
	}
}

// checkTreeAgainstSearch fails t unless, for every dst, the path read
// from src's full Dijkstra tree is the first of KShortestPaths(src, dst)
// (and of the reference), as TopologyFinder's per-source routes assume.
func checkTreeAgainstSearch(t *testing.T, g *Graph, src int, w WeightFunc) {
	t.Helper()
	_, parent := g.Dijkstra(src, w)
	for dst := 0; dst < g.N(); dst++ {
		got := g.TreePath(parent, src, dst)
		var want Path
		if paths := g.KShortestPaths(src, dst, 1, w); len(paths) > 0 {
			want = paths[0]
		}
		if !equalPath(got, want) {
			t.Fatalf("TreePath(%d, %d) on %v\n got %v\nwant %v", src, dst, g.edges, got, want)
		}
		var ref Path
		if paths := refKShortestPaths(g, src, dst, 1, w); len(paths) > 0 {
			ref = paths[0]
		}
		if !equalPath(got, ref) {
			t.Fatalf("TreePath(%d, %d) on %v\n got %v\nreference %v", src, dst, g.edges, got, ref)
		}
	}
}

func equalPath(a, b Path) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKShortestPathsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(11)
		g := tieGraph(rng, n, rng.Intn(4*n))
		for q := 0; q < 4; q++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			for k := 1; k <= 4; k++ {
				checkAgainstReference(t, g, src, dst, k, UnitWeight)
				checkAgainstReference(t, g, src, dst, k, capWeight)
			}
		}
		// Per source: one full tree answers every destination.
		for src := 0; src < n; src++ {
			checkTreeAgainstSearch(t, g, src, UnitWeight)
			checkTreeAgainstSearch(t, g, src, capWeight)
		}
	}
}

// FuzzKShortestPaths decodes a multigraph from bytes (node count, then
// from/to/weight triples) and checks KShortestPaths, WeightedShortestPath
// and Dijkstra against the reference implementation, and the path read
// from src's full Dijkstra tree to every node against KShortestPaths.
func FuzzKShortestPaths(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 0, 2, 2, 2, 3, 0, 1, 3, 1, 0, 3, 2}, uint8(0), uint8(3), uint8(4))
	f.Add([]byte{3, 0, 1, 0, 0, 1, 0, 1, 2, 0, 0, 2, 0}, uint8(0), uint8(2), uint8(3))
	f.Add([]byte{8, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 6, 1, 6, 7, 1, 7, 0, 1, 0, 4, 3}, uint8(1), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, src, dst, k uint8) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%16
		g := New(n)
		for i := 1; i+2 < len(data); i += 3 {
			from, to := int(data[i])%n, int(data[i+1])%n
			if from == to {
				continue
			}
			g.AddEdge(from, to, float64(data[i+2]%4))
		}
		checkAgainstReference(t, g, int(src)%n, int(dst)%n, int(k)%6, capWeight)
		checkAgainstReference(t, g, int(src)%n, int(dst)%n, int(k)%6, UnitWeight)
		checkTreeAgainstSearch(t, g, int(src)%n, UnitWeight)
		checkTreeAgainstSearch(t, g, int(src)%n, capWeight)
	})
}
