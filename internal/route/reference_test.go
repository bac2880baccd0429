package route

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"topoopt/internal/graph"
)

// refTable is the nested-map routing table Table replaced, kept verbatim
// as the reference its dense slice must answer exactly like.
type refTable struct {
	n     int
	paths map[int]map[int][]int
}

func newRefTable(n int) *refTable {
	return &refTable{n: n, paths: make(map[int]map[int][]int)}
}

func (t *refTable) Set(src, dst int, nodes []int) {
	m := t.paths[src]
	if m == nil {
		m = make(map[int][]int)
		t.paths[src] = m
	}
	m[dst] = nodes
}

func (t *refTable) Get(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if m := t.paths[src]; m != nil {
		return m[dst]
	}
	return nil
}

func (t *refTable) PairCount() int {
	c := 0
	for _, m := range t.paths {
		c += len(m)
	}
	return c
}

func (t *refTable) FillShortestPaths(g *graph.Graph) {
	for s := 0; s < t.n; s++ {
		dist, parent := g.BFS(s)
		for d := 0; d < t.n; d++ {
			if s == d || t.Get(s, d) != nil || dist[d] < 0 {
				continue
			}
			var rev []int
			for v := d; v != s; {
				rev = append(rev, v)
				v = g.Edge(parent[v]).From
			}
			nodes := make([]int, 0, len(rev)+1)
			nodes = append(nodes, s)
			for i := len(rev) - 1; i >= 0; i-- {
				nodes = append(nodes, rev[i])
			}
			t.Set(s, d, nodes)
		}
	}
}

func (t *refTable) LinkLoads(tm [][]int64) map[[2]int]int64 {
	loads := make(map[[2]int]int64)
	for s := range tm {
		for d, bytes := range tm[s] {
			if bytes == 0 || s == d {
				continue
			}
			nodes := t.Get(s, d)
			if nodes == nil {
				continue
			}
			for i := 0; i+1 < len(nodes); i++ {
				loads[[2]int{nodes[i], nodes[i+1]}] += bytes
			}
		}
	}
	return loads
}

func (t *refTable) BandwidthTax(tm [][]int64) float64 {
	var logical, routed int64
	for s := range tm {
		for d, bytes := range tm[s] {
			if bytes == 0 || s == d {
				continue
			}
			nodes := t.Get(s, d)
			if nodes == nil {
				continue
			}
			logical += bytes
			routed += bytes * int64(len(nodes)-1)
		}
	}
	if logical == 0 {
		return 1
	}
	return float64(routed) / float64(logical)
}

// randomPath returns a node path from src to dst through up to three
// random intermediate nodes.
func randomPath(rng *rand.Rand, n, src, dst int) []int {
	nodes := []int{src}
	for i := rng.Intn(4); i > 0; i-- {
		nodes = append(nodes, rng.Intn(n))
	}
	return append(nodes, dst)
}

// sameTable fails t unless tab and ref answer Get identically for every
// pair, including pairs with a node outside [0, n).
func sameTable(t *testing.T, tab *Table, ref *refTable, n int) {
	t.Helper()
	for s := -2; s < n+2; s++ {
		for d := -2; d < n+2; d++ {
			if got, want := tab.Get(s, d), ref.Get(s, d); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("n=%d Get(%d, %d) = %v, want %v", n, s, d, got, want)
			}
		}
	}
	if got, want := tab.PairCount(), ref.PairCount(); got != want {
		t.Fatalf("n=%d PairCount() = %d, want %d", n, got, want)
	}
}

func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		tab, ref := NewTable(n), newRefTable(n)
		// Sets, with overwrites and same-node entries.
		for i := rng.Intn(3 * n * n); i > 0; i-- {
			s, d := rng.Intn(n), rng.Intn(n)
			p := []int{s}
			if s != d || rng.Intn(2) == 0 {
				p = randomPath(rng, n, s, d)
			}
			tab.Set(s, d, p)
			ref.Set(s, d, p)
		}
		sameTable(t, tab, ref, n)

		tm := make([][]int64, n)
		for s := range tm {
			tm[s] = make([]int64, n)
			for d := range tm[s] {
				if rng.Intn(3) == 0 {
					tm[s][d] = rng.Int63n(1e9)
				}
			}
		}
		if got, want := tab.LinkLoads(tm), ref.LinkLoads(tm); !maps.Equal(got, want) {
			t.Fatalf("n=%d LinkLoads = %v, want %v", n, got, want)
		}
		if got, want := tab.BandwidthTax(tm), ref.BandwidthTax(tm); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d BandwidthTax = %v, want %v", n, got, want)
		}

		g := graph.New(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				g.AddEdge(a, b, 1)
			}
		}
		tab.FillShortestPaths(g)
		ref.FillShortestPaths(g)
		sameTable(t, tab, ref, n)
	}
}

func TestTableSetOutOfRangePanics(t *testing.T) {
	for _, pair := range [][2]int{{-1, 0}, {0, 3}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d, %d) on a 3-node table did not panic", pair[0], pair[1])
				}
			}()
			NewTable(3).Set(pair[0], pair[1], []int{pair[0], pair[1]})
		}()
	}
}
