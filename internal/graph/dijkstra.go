package graph

// WeightFunc assigns a nonnegative traversal cost to an edge. The network
// layers use it to bias routing away from loaded links.
type WeightFunc func(Edge) float64

// UnitWeight gives every edge cost 1 (hop-count routing).
func UnitWeight(Edge) float64 { return 1 }

type dijkstraItem struct {
	node int
	dist float64
}

// dijkstraHeap is a binary min-heap on dist. push and pop sift exactly as
// container/heap's Push and Pop do, so equal-distance items leave in the
// same order and ties between equal-cost paths resolve the same way.
type dijkstraHeap []dijkstraItem

func (h *dijkstraHeap) push(it dijkstraItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *dijkstraHeap) pop() dijkstraItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// pathSearch is Dijkstra's state on one graph, reused across the searches
// of one KShortestPaths call. Edges marked in bannedEdge and edges into
// nodes marked in bannedNode are not traversed.
type pathSearch struct {
	g          *Graph
	dist       []float64 // -1 while unreached
	parent     []int     // edge that last lowered dist, -1 for none
	done       []bool
	heap       dijkstraHeap
	bannedEdge []bool
	bannedNode []bool
}

func (g *Graph) newPathSearch() *pathSearch {
	return &pathSearch{
		g:          g,
		dist:       make([]float64, g.n),
		parent:     make([]int, g.n),
		done:       make([]bool, g.n),
		bannedEdge: make([]bool, len(g.edges)),
		bannedNode: make([]bool, g.n),
	}
}

// run computes distances from src under w, stopping once dst is settled
// (dst < 0 settles every reachable node). Stopping early is exact: with
// nonnegative weights every node popped after dst has dist ≥ dist[dst],
// so the strict < relaxation never changes the parent of dst or of any
// node on its path again.
func (ps *pathSearch) run(src, dst int, w WeightFunc) {
	g := ps.g
	for i := range ps.dist {
		ps.dist[i] = -1
		ps.parent[i] = -1
		ps.done[i] = false
	}
	ps.dist[src] = 0
	h := append(ps.heap[:0], dijkstraItem{src, 0})
	for len(h) > 0 {
		it := h.pop()
		v := it.node
		if ps.done[v] {
			continue
		}
		ps.done[v] = true
		if v == dst {
			break
		}
		for _, id := range g.out[v] {
			e := g.edges[id]
			if ps.bannedEdge[id] || ps.bannedNode[e.To] {
				continue
			}
			nd := it.dist + w(e)
			if ps.dist[e.To] < 0 || nd < ps.dist[e.To] {
				ps.dist[e.To] = nd
				ps.parent[e.To] = id
				h.push(dijkstraItem{e.To, nd})
			}
		}
	}
	ps.heap = h
}

// shortest returns a minimum-cost path from src to dst, or nil if dst is
// unreachable.
func (ps *pathSearch) shortest(src, dst int, w WeightFunc) Path {
	if src == dst {
		return Path{}
	}
	ps.run(src, dst, w)
	return ps.g.TreePath(ps.parent, src, dst)
}

// TreePath reads the path from src to dst out of a shortest-path tree
// rooted at src, given as the parentEdge slice Dijkstra or BFS returns.
// It returns nil if dst is unreachable and an empty path if dst == src.
// A Dijkstra tree grown from src to every node holds the same path to
// each dst as a search that stops once dst is settled (see run), so one
// tree per source answers every WeightedShortestPath(src, ·) query.
func (g *Graph) TreePath(parentEdge []int, src, dst int) Path {
	if src == dst {
		return Path{}
	}
	if parentEdge[dst] < 0 {
		return nil
	}
	hops := 0
	for v := dst; v != src; v = g.edges[parentEdge[v]].From {
		hops++
	}
	p := make(Path, hops)
	for v := dst; v != src; v = g.edges[parentEdge[v]].From {
		hops--
		p[hops] = parentEdge[v]
	}
	return p
}

// Dijkstra computes weighted shortest-path distances from src under w.
// Unreachable nodes get dist -1 and parentEdge -1.
func (g *Graph) Dijkstra(src int, w WeightFunc) (dist []float64, parentEdge []int) {
	g.checkNode(src)
	ps := g.newPathSearch()
	ps.run(src, -1, w)
	return ps.dist, ps.parent
}

// WeightedShortestPath returns a minimum-cost path under w, or nil if dst is
// unreachable.
func (g *Graph) WeightedShortestPath(src, dst int, w WeightFunc) Path {
	g.checkNode(src)
	g.checkNode(dst)
	return g.newPathSearch().shortest(src, dst, w)
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// increasing cost order under w, using Yen's algorithm. MP routing uses it
// to spread forwarded traffic over alternatives (§5.5).
func (g *Graph) KShortestPaths(src, dst, k int, w WeightFunc) []Path {
	if k <= 0 {
		return nil
	}
	g.checkNode(src)
	g.checkNode(dst)
	ps := g.newPathSearch()
	first := ps.shortest(src, dst, w)
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
			rootPath := prev[:i]
			// Ban edges that would recreate already-found paths sharing
			// this root, and ban root nodes to keep paths loopless.
			for _, p := range paths {
				if len(p) > i && pathPrefixEq(p, rootPath) {
					ps.bannedEdge[p[i]] = true
				}
			}
			for _, v := range prevNodes[:i] {
				ps.bannedNode[v] = true
			}
			spur := ps.shortest(prevNodes[i], dst, w)
			for _, p := range paths {
				if len(p) > i {
					ps.bannedEdge[p[i]] = false
				}
			}
			for _, v := range prevNodes[:i] {
				ps.bannedNode[v] = false
			}
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
func pathPrefixEq(p, prefix Path) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(set []Path, p Path) bool {
	for _, q := range set {
		if len(q) != len(p) {
			continue
		}
		eq := true
		for i := range q {
			if q[i] != p[i] {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}
