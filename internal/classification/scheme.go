// Package classification implements NNexus classification-based link
// steering (paper §2.3): subject classification schemes represented as
// weighted trees, class-to-class distances computed with Johnson's all-pairs
// shortest path algorithm, and the steering rule (Algorithm 1) that selects
// the candidate link targets closest in classification to the link source.
//
// Edge weights follow the paper:
//
//	w(e) = b^(height−i−1)
//
// where b is the chosen base weight (default 10), height is the height of
// the tree, and i is the distance of the edge from the root — so edges deep
// in a subtree are cheap and edges near the root are expensive, making
// classes in the same deep subtree "closer" than classes that only share a
// top-level category. With b = 1 the scheme degenerates to the non-weighted
// (hop count) approach.
package classification

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultBaseWeight is the paper's default weight base.
const DefaultBaseWeight = 10

// Infinite is the distance reported between unconnected classes and for
// objects without classifications.
const Infinite int64 = 1<<62 - 1

// node is one class in the scheme.
type node struct {
	id       string
	name     string
	parent   int   // index of parent node, -1 for the virtual root
	depth    int   // edges from the root (root = 0)
	index    int   // dense index
	children []int // indices of children
}

// Scheme is a subject classification hierarchy such as the MSC. Build one
// with NewScheme + AddClass, then call Build before querying distances.
// After Build, all methods are safe for concurrent use.
type Scheme struct {
	name  string
	base  int64
	built bool

	nodes  []*node
	byID   map[string]int
	height int

	// adj is the undirected weighted adjacency list, filled by Build.
	adj [][]edge

	// rows memoizes per-source Dijkstra results. The slots are allocated
	// once by Build; each row is computed at most once (sync.Once) and read
	// lock-free afterwards, so concurrent Distance queries never contend on
	// a shared mutex the way the previous map-under-mutex cache did.
	rows []distSlot
	// allPairs holds the full Johnson table when AllPairs was run,
	// published atomically so it can be installed while queries are live.
	allPairs atomic.Pointer[[][]int64]
}

// distSlot lazily holds one source class's full distance row.
type distSlot struct {
	once sync.Once
	row  []int64
}

type edge struct {
	to int
	w  int64
}

// NewScheme creates an empty classification scheme with the given weight
// base (b ≥ 1; use DefaultBaseWeight for the paper's setting, 1 for the
// non-weighted approach).
func NewScheme(name string, baseWeight int) *Scheme {
	if baseWeight < 1 {
		baseWeight = 1
	}
	s := &Scheme{
		name: name,
		base: int64(baseWeight),
		byID: make(map[string]int),
	}
	root := &node{id: "", name: "(root)", parent: -1, index: 0}
	s.nodes = append(s.nodes, root)
	s.byID[""] = 0
	return s
}

// Name returns the scheme's name (e.g. "msc").
func (s *Scheme) Name() string { return s.name }

// BaseWeight returns the configured weight base b.
func (s *Scheme) BaseWeight() int { return int(s.base) }

// AddClass registers a class under the given parent. An empty parent places
// the class directly under the designated root. The parent must already
// exist; duplicate ids are rejected.
func (s *Scheme) AddClass(id, name, parent string) error {
	if s.built {
		return fmt.Errorf("classification: scheme %q already built", s.name)
	}
	if id == "" {
		return fmt.Errorf("classification: empty class id")
	}
	if _, dup := s.byID[id]; dup {
		return fmt.Errorf("classification: duplicate class %q", id)
	}
	pi, ok := s.byID[parent]
	if !ok {
		return fmt.Errorf("classification: unknown parent %q for class %q", parent, id)
	}
	n := &node{id: id, name: name, parent: pi, index: len(s.nodes)}
	s.nodes = append(s.nodes, n)
	s.byID[id] = n.index
	s.nodes[pi].children = append(s.nodes[pi].children, n.index)
	return nil
}

// Build freezes the scheme: computes depths, the tree height, and the
// weighted adjacency list. It must be called exactly once, after which
// distance queries become available.
func (s *Scheme) Build() error {
	if s.built {
		return fmt.Errorf("classification: scheme %q already built", s.name)
	}
	// BFS from the root to assign depths and find the height.
	s.height = 0
	queue := []int{0}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		n := s.nodes[i]
		if n.parent >= 0 {
			n.depth = s.nodes[n.parent].depth + 1
		}
		if n.depth > s.height {
			s.height = n.depth
		}
		queue = append(queue, n.children...)
	}
	// Edge weights: an edge between depth-d and depth-(d+1) nodes has
	// distance-from-root i = d, so w = b^(height-d-1).
	s.adj = make([][]edge, len(s.nodes))
	for _, n := range s.nodes {
		if n.parent < 0 {
			continue
		}
		i := s.nodes[n.parent].depth
		w := pow(s.base, s.height-i-1)
		s.adj[n.parent] = append(s.adj[n.parent], edge{to: n.index, w: w})
		s.adj[n.index] = append(s.adj[n.index], edge{to: n.parent, w: w})
	}
	s.rows = make([]distSlot, len(s.nodes))
	s.built = true
	return nil
}

// Built reports whether Build has completed.
func (s *Scheme) Built() bool { return s.built }

// Height returns the tree height (distance of the longest path from the
// designated root node). Valid after Build.
func (s *Scheme) Height() int { return s.height }

// Len returns the number of classes, excluding the virtual root.
func (s *Scheme) Len() int { return len(s.nodes) - 1 }

// Has reports whether the class id exists in the scheme.
func (s *Scheme) Has(id string) bool {
	_, ok := s.byID[id]
	return ok && id != ""
}

// Classes returns all class ids in sorted order.
func (s *Scheme) Classes() []string {
	out := make([]string, 0, len(s.nodes)-1)
	for id := range s.byID {
		if id != "" {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// ClassName returns the human-readable name of a class.
func (s *Scheme) ClassName(id string) string {
	if i, ok := s.byID[id]; ok {
		return s.nodes[i].name
	}
	return ""
}

// Parent returns the parent class id of id ("" if top-level or unknown).
func (s *Scheme) Parent(id string) string {
	if i, ok := s.byID[id]; ok && s.nodes[i].parent > 0 {
		return s.nodes[s.nodes[i].parent].id
	}
	return ""
}

// IsDescendant reports whether id lies in the subtree rooted at ancestor
// (a class is considered a descendant of itself). Unknown classes are
// nobody's descendants.
func (s *Scheme) IsDescendant(id, ancestor string) bool {
	i, ok := s.byID[id]
	if !ok || id == "" || ancestor == "" {
		return false
	}
	ai, ok := s.byID[ancestor]
	if !ok {
		return false
	}
	for i >= 0 {
		if i == ai {
			return true
		}
		i = s.nodes[i].parent
	}
	return false
}

// Depth returns the depth of a class (root children are depth 1), or -1 if
// unknown. Valid after Build.
func (s *Scheme) Depth(id string) int {
	if i, ok := s.byID[id]; ok {
		return s.nodes[i].depth
	}
	return -1
}

// EdgeWeight returns the weight of the tree edge joining a class to its
// parent, or 0 if the class is unknown or the root. Valid after Build.
func (s *Scheme) EdgeWeight(id string) int64 {
	i, ok := s.byID[id]
	if !ok || s.nodes[i].parent < 0 {
		return 0
	}
	d := s.nodes[s.nodes[i].parent].depth
	return pow(s.base, s.height-d-1)
}

// Distance returns the weighted shortest-path distance between two classes.
// Unknown classes yield (Infinite, false). Results are memoized per source
// class; the first query from a given class runs one Dijkstra pass, after
// which queries from that class are lock-free row lookups.
func (s *Scheme) Distance(a, b string) (int64, bool) {
	ia, oka := s.byID[a]
	ib, okb := s.byID[b]
	if !oka || !okb || !s.built {
		return Infinite, false
	}
	if ia == ib {
		return 0, true
	}
	return s.row(ia)[ib], true
}

// Index returns the dense node index of a class, the key of the index-based
// distance queries, and whether the class exists. It resolves exactly the ids
// Distance resolves. Valid after Build.
func (s *Scheme) Index(id string) (int32, bool) {
	i, ok := s.byID[id]
	return int32(i), ok
}

// AppendIndexes appends to dst the node index of every class of ids the
// scheme knows, in order, and drops the others: the form MinDistanceIndex
// takes, with the classes Distance would refuse already left out.
func (s *Scheme) AppendIndexes(dst []int32, ids []string) []int32 {
	for _, id := range ids {
		if i, ok := s.Index(id); ok {
			dst = append(dst, i)
		}
	}
	return dst
}

// row returns the full distance row from node index ia: the Johnson table's
// row when AllPairs was run, the memoised Dijkstra row otherwise.
func (s *Scheme) row(ia int) []int64 {
	if table := s.allPairs.Load(); table != nil {
		return (*table)[ia]
	}
	return s.distRow(ia)
}

// distRow returns (computing if needed) the full distance row from source
// node index ia. The sync.Once fast path is a single atomic load, so
// concurrent queries from already-memoized sources never serialize.
func (s *Scheme) distRow(ia int) []int64 {
	slot := &s.rows[ia]
	slot.once.Do(func() { slot.row = s.dijkstra(ia) })
	return slot.row
}

func pow(b int64, e int) int64 {
	if e < 0 {
		return 1
	}
	out := int64(1)
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
