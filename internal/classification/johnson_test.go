package classification

import (
	"container/heap"
	"fmt"
	"testing"
)

// johnson computes the distances between all classes (the virtual root
// included) with Johnson's algorithm, as the paper specifies ("NNexus uses
// Johnson's All Pairs Shortest Path algorithm to compute the distances
// between all classes at startup"). The table is indexed by Scheme.Index.
// It is the reference the tree walk (Scheme.dist) is tested against, so it
// builds its own graph from Parent and the paper's edge weight
// w(e) = b^(height−i−1), and holds EdgeWeight to that weight.
//
// Johnson's algorithm adds a virtual vertex q with zero-weight edges to all
// vertices, runs Bellman–Ford from q to obtain vertex potentials h(v),
// reweights every edge as w'(u,v) = w(u,v) + h(u) − h(v) ≥ 0, and then runs
// Dijkstra from every vertex on the reweighted graph. Class-tree weights are
// non-negative, so the potentials come out zero, but the full pipeline is
// kept, negative-cycle check included, so the reference does not lean on the
// tree shape it checks.
func johnson(tb testing.TB, s *Scheme) [][]int64 {
	tb.Helper()
	n := s.Len() + 1
	adj := make([][]edge, n)
	for _, id := range s.Classes() {
		u, _ := s.Index(id)
		v, _ := s.Index(s.Parent(id))
		w := int64(1) // the edge from depth i = Depth(id)−1
		for range s.Height() - s.Depth(id) {
			w *= int64(s.BaseWeight())
		}
		if got := s.EdgeWeight(id); got != w {
			tb.Fatalf("EdgeWeight(%q) = %d, want b^(height−i−1) = %d", id, got, w)
		}
		adj[u] = append(adj[u], edge{to: int(v), w: w})
		adj[v] = append(adj[v], edge{to: int(u), w: w})
	}
	h, err := bellmanFordFromVirtual(adj)
	if err != nil {
		tb.Fatal(err)
	}
	// Reweighted adjacency.
	radj := make([][]edge, n)
	for u := range adj {
		for _, e := range adj[u] {
			w := e.w + h[u] - h[e.to]
			if w < 0 {
				tb.Fatalf("negative reweighted edge %d→%d", u, e.to)
			}
			radj[u] = append(radj[u], edge{to: e.to, w: w})
		}
	}
	table := make([][]int64, n)
	for u := 0; u < n; u++ {
		row := dijkstraAdj(radj, u)
		// Undo the reweighting: d(u,v) = d'(u,v) − h(u) + h(v).
		for v := range row {
			if row[v] < Infinite {
				row[v] = row[v] - h[u] + h[v]
			}
		}
		table[u] = row
	}
	return table
}

type edge struct {
	to int
	w  int64
}

// bellmanFordFromVirtual computes Johnson potentials: shortest distances
// from a virtual source q that has a zero-weight edge to every vertex.
// Returns an error if a negative cycle is detected.
func bellmanFordFromVirtual(adj [][]edge) ([]int64, error) {
	n := len(adj)
	h := make([]int64, n) // q's zero edges initialize every distance to 0
	// Relax |V| − 1 times (the virtual vertex adds one more vertex, and its
	// edges are already reflected in the initialization).
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			for _, e := range adj[u] {
				if h[u]+e.w < h[e.to] {
					h[e.to] = h[u] + e.w
					changed = true
				}
			}
		}
		if !changed {
			return h, nil
		}
	}
	// One more pass: any further relaxation means a negative cycle.
	for u := 0; u < n; u++ {
		for _, e := range adj[u] {
			if h[u]+e.w < h[e.to] {
				return nil, fmt.Errorf("negative cycle through node %d", u)
			}
		}
	}
	return h, nil
}

func dijkstraAdj(adj [][]edge, src int) []int64 {
	dist := make([]int64, len(adj))
	for i := range dist {
		dist[i] = Infinite
	}
	dist[src] = 0
	pq := &distHeap{{node: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.node] {
			continue // stale entry
		}
		for _, e := range adj[item.node] {
			if nd := item.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distItem{node: e.to, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	node int
	d    int64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// TestTreeDistanceMatchesJohnson: on the shipped schemes, at the paper's
// base and at the non-weighted one, the tree walk's distance between every
// pair of classes, the root included, is Johnson's.
func TestTreeDistanceMatchesJohnson(t *testing.T) {
	for _, s := range []*Scheme{SampleMSC(10), SampleMSC(1), MSC2000(10)} {
		requireJohnson(t, s)
	}
}

// requireJohnson fails unless Distance equals the Johnson reference on
// every pair of s's classes, the root's empty id included.
func requireJohnson(t *testing.T, s *Scheme) {
	t.Helper()
	ref := johnson(t, s)
	ids := append(s.Classes(), "")
	for _, a := range ids {
		ia, _ := s.Index(a)
		for _, b := range ids {
			ib, _ := s.Index(b)
			if d, ok := s.Distance(a, b); !ok || d != ref[ia][ib] {
				t.Fatalf("%s base %d: d(%q,%q) = %d,%v, johnson = %d", s.Name(), s.BaseWeight(), a, b, d, ok, ref[ia][ib])
			}
		}
	}
}
