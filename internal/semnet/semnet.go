// Package semnet materializes and analyses the semantic network NNexus
// exists to build (paper §1.3: "The optimal end product of an automatic
// invocation linking system should be a fully connected network of articles
// that will enable readers to navigate and learn from the corpus").
//
// The network has one node per entry and a directed edge for every
// invocation link the engine creates. The analysis answers the paper's
// navigability question: starting from an entry, how much of the corpus can
// a reader reach by following concept links "all the way down"?
package semnet

import (
	"fmt"
	"io"
	"sort"
)

// Edge is one invocation link between entries.
type Edge struct {
	From, To int64
	// Label is the concept label the link was created for.
	Label string
}

// Graph is the semantic network. Build it with New and AddEdge, or via
// BuildFromResults.
type Graph struct {
	nodes map[int64]string // entry ID → title
	out   map[int64][]Edge
	in    map[int64]int // in-degree
	edges int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[int64]string),
		out:   make(map[int64][]Edge),
		in:    make(map[int64]int),
	}
}

// AddNode registers an entry. Adding twice updates the title.
func (g *Graph) AddNode(id int64, title string) {
	g.nodes[id] = title
}

// AddEdge records an invocation link. Both endpoints must have been added;
// unknown endpoints are registered with empty titles. Parallel edges
// (several labels linking the same pair) are kept.
func (g *Graph) AddEdge(from, to int64, label string) {
	if _, ok := g.nodes[from]; !ok {
		g.nodes[from] = ""
	}
	if _, ok := g.nodes[to]; !ok {
		g.nodes[to] = ""
	}
	g.out[from] = append(g.out[from], Edge{From: from, To: to, Label: label})
	g.in[to]++
	g.edges++
}

// Nodes returns the number of entries in the network.
func (g *Graph) Nodes() int { return len(g.nodes) }

// Edges returns the number of invocation links.
func (g *Graph) Edges() int { return g.edges }

// InDegree returns how many links point at the entry.
func (g *Graph) InDegree(id int64) int { return g.in[id] }

// Stats summarizes the network's navigability.
type Stats struct {
	Nodes int
	Edges int
	// AvgOutDegree is edges / nodes.
	AvgOutDegree float64
	// Isolated counts entries with neither incoming nor outgoing links.
	Isolated int
	// LargestComponent is the size of the largest weakly connected
	// component — the "fully connected network" the paper aims for means
	// this approaches Nodes.
	LargestComponent int
	// Components is the number of weakly connected components.
	Components int
	// AvgReachable estimates (by sampling) how many entries a reader can
	// reach following links forward from a random entry.
	AvgReachable float64
}

// Stats computes the summary. sampleEvery controls the reachability
// estimate: every k-th node (by sorted ID) is used as a BFS source; use 1
// for exact, larger values for big graphs.
func (g *Graph) Stats(sampleEvery int) Stats {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	s := Stats{Nodes: len(g.nodes), Edges: g.edges}
	if s.Nodes == 0 {
		return s
	}
	s.AvgOutDegree = float64(s.Edges) / float64(s.Nodes)

	ids := g.sortedIDs()
	for _, id := range ids {
		if len(g.out[id]) == 0 && g.in[id] == 0 {
			s.Isolated++
		}
	}

	// Weakly connected components by union-find.
	parent := make(map[int64]int64, len(ids))
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, id := range ids {
		parent[id] = id
	}
	union := func(a, b int64) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for from, edges := range g.out {
		for _, e := range edges {
			union(from, e.To)
		}
	}
	sizes := make(map[int64]int)
	for _, id := range ids {
		sizes[find(id)]++
	}
	s.Components = len(sizes)
	for _, n := range sizes {
		if n > s.LargestComponent {
			s.LargestComponent = n
		}
	}

	// Forward reachability, sampled.
	var total, samples int
	for i := 0; i < len(ids); i += sampleEvery {
		total += g.reachableFrom(ids[i])
		samples++
	}
	if samples > 0 {
		s.AvgReachable = float64(total) / float64(samples)
	}
	return s
}

// reachableFrom counts nodes reachable from src following edges forward
// (excluding src itself).
func (g *Graph) reachableFrom(src int64) int {
	seen := map[int64]bool{src: true}
	queue := []int64{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.out[cur] {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return len(seen) - 1
}

// TopHubs returns the n entries with the highest in-degree — the canonical
// definitions the corpus leans on most.
func (g *Graph) TopHubs(n int) []int64 {
	ids := g.sortedIDs()
	sort.SliceStable(ids, func(i, j int) bool {
		if g.in[ids[i]] != g.in[ids[j]] {
			return g.in[ids[i]] > g.in[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// Title returns a node's title.
func (g *Graph) Title(id int64) string { return g.nodes[id] }

// WriteDOT emits the network in Graphviz DOT format for visualization.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n", name); err != nil {
		return err
	}
	for _, id := range g.sortedIDs() {
		title := g.nodes[id]
		if title == "" {
			title = fmt.Sprintf("entry %d", id)
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=%q];\n", id, title); err != nil {
			return err
		}
	}
	for _, from := range g.sortedIDs() {
		for _, e := range g.out[from] {
			if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=%q];\n", e.From, e.To, e.Label); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func (g *Graph) sortedIDs() []int64 {
	ids := make([]int64, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
