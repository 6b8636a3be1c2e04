// Package classification implements NNexus classification-based link
// steering (paper §2.3): subject classification schemes represented as
// weighted trees, class-to-class distances, and the steering rule
// (Algorithm 1) that selects the candidate link targets closest in
// classification to the link source.
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
//
// The paper computes the distances between all classes at startup with
// Johnson's all-pairs shortest path algorithm. Every scheme is a tree (a
// class has one parent), so the distance between classes a and b is
// W(a) + W(b) − 2·W(lca(a, b)), where W is a class's weighted depth: a walk
// up the parents, at most height steps, answers each pair, and a built
// scheme holds O(N) state. Johnson's algorithm is the tests' reference
// (johnson_test.go), and FuzzTreeDistance holds the two equal.
package classification

import (
	"fmt"
	"sort"
)

// DefaultBaseWeight is the paper's default weight base.
const DefaultBaseWeight = 10

// Infinite is the distance reported between unconnected classes and for
// objects without classifications.
const Infinite int64 = 1<<62 - 1

// node is one class in the scheme.
type node struct {
	id     string
	name   string
	parent int32 // index of the parent node, -1 for the virtual root
	depth  int32 // edges from the root (root = 0)
	w      int64 // weighted depth: the edge weights from the root, set by Build
}

// Scheme is a subject classification hierarchy such as the MSC. Build one
// with NewScheme + AddClass, then call Build before querying distances.
// A built scheme is read-only, so all its methods are safe for concurrent
// use.
type Scheme struct {
	name  string
	base  int64
	built bool

	// nodes holds every class after its parent: AddClass requires the
	// parent to exist. Index 0 is the virtual root.
	nodes  []node
	byID   map[string]int32
	height int
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
		byID: map[string]int32{"": 0},
	}
	s.nodes = append(s.nodes, node{id: "", name: "(root)", parent: -1})
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
	depth := s.nodes[pi].depth + 1
	s.byID[id] = int32(len(s.nodes))
	s.nodes = append(s.nodes, node{id: id, name: name, parent: pi, depth: depth})
	s.height = max(s.height, int(depth))
	return nil
}

// Build freezes the scheme: it gives every class its weighted depth W, the
// sum of the weights b^(height−i−1) on its path from the root. It must be
// called exactly once, after which distance queries become available. The
// base and the height come from outside the program (a flag, an OWL file),
// so Build refuses a scheme whose largest distance, 2·W of its deepest
// class, would reach Infinite.
func (s *Scheme) Build() error {
	if s.built {
		return fmt.Errorf("classification: scheme %q already built", s.name)
	}
	// below[d] is the weight of a path from depth d down to the deepest
	// level: b^0 + b^1 + … + b^(height−d−1). A class's W is
	// below[0] − below[depth]. Every sum stays ≤ maxW, so none wraps.
	const maxW = Infinite / 2
	below := make([]int64, s.height+1)
	p := int64(1) // b^(height−d−1), the weight of an edge from depth d
	for d := s.height - 1; d >= 0; d-- {
		below[d] = below[d+1] + p
		if below[d] > maxW || (d > 0 && p > maxW/s.base) {
			return fmt.Errorf("classification: scheme %q of height %d at base %d: its class distances would overflow",
				s.name, s.height, s.base)
		}
		p *= s.base
	}
	for i := range s.nodes {
		s.nodes[i].w = below[0] - below[s.nodes[i].depth]
	}
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

// Distance returns the weighted shortest-path distance between two classes:
// the weights on the tree path joining them. Unknown classes yield
// (Infinite, false).
func (s *Scheme) Distance(a, b string) (int64, bool) {
	ia, oka := s.byID[a]
	ib, okb := s.byID[b]
	if !oka || !okb || !s.built {
		return Infinite, false
	}
	return s.dist(ia, ib), true
}

// dist is the distance between the classes at node indexes a and b,
// W(a) + W(b) − 2·W(lca(a, b)): the deeper one walks up to the other's
// depth, then both walk up until they meet, at most height steps each.
func (s *Scheme) dist(a, b int32) int64 {
	n := s.nodes
	d := n[a].w + n[b].w
	for n[a].depth > n[b].depth {
		a = n[a].parent
	}
	for n[b].depth > n[a].depth {
		b = n[b].parent
	}
	for a != b {
		a, b = n[a].parent, n[b].parent
	}
	return d - 2*n[a].w
}

// Index returns the dense node index of a class, the key of the index-based
// distance queries, and whether the class exists. It resolves exactly the ids
// Distance resolves. Valid after Build.
func (s *Scheme) Index(id string) (int32, bool) {
	i, ok := s.byID[id]
	return i, ok
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
