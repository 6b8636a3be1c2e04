package classification

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSchemeBuildShape(t *testing.T) {
	s := SampleMSC(DefaultBaseWeight)
	if s.Height() != 3 {
		t.Fatalf("height = %d, want 3", s.Height())
	}
	if s.Len() != 16 {
		t.Fatalf("len = %d, want 16", s.Len())
	}
	if !s.Has("05C40") || s.Has("99Z99") || s.Has("") {
		t.Error("Has misbehaves")
	}
	if s.Depth("05-XX") != 1 || s.Depth("05Cxx") != 2 || s.Depth("05C40") != 3 {
		t.Errorf("depths = %d %d %d", s.Depth("05-XX"), s.Depth("05Cxx"), s.Depth("05C40"))
	}
	if s.Parent("05C40") != "05Cxx" || s.Parent("05-XX") != "" {
		t.Errorf("parents = %q %q", s.Parent("05C40"), s.Parent("05-XX"))
	}
	if s.ClassName("05Cxx") != "Graph theory" {
		t.Errorf("name = %q", s.ClassName("05Cxx"))
	}
	if n := len(s.Classes()); n != 16 {
		t.Errorf("Classes() = %d entries", n)
	}
}

// Edge weights must follow w(e) = b^(height-i-1) with base 10 and height 3:
// depth-1 edges cost 100, depth-2 edges 10, depth-3 edges 1.
func TestEdgeWeights(t *testing.T) {
	s := SampleMSC(10)
	cases := map[string]int64{
		"05-XX": 100, // root → top level, i=0
		"05Cxx": 10,  // i=1
		"05C40": 1,   // i=2
	}
	for id, want := range cases {
		if got := s.EdgeWeight(id); got != want {
			t.Errorf("EdgeWeight(%s) = %d, want %d", id, got, want)
		}
	}
}

// The paper's worked example: the weighted distance from 05C99 to 05C40 is
// shorter than from 03E20 to 05C40, so "graph" links to the graph-theory
// object.
func TestPaperSteeringExampleDistances(t *testing.T) {
	s := SampleMSC(10)
	dSame, ok := s.Distance("05C40", "05C99")
	if !ok || dSame != 2 {
		t.Fatalf("d(05C40,05C99) = %d ok=%v, want 2", dSame, ok)
	}
	dFar, ok := s.Distance("05C40", "03E20")
	if !ok || dFar != 222 {
		t.Fatalf("d(05C40,03E20) = %d ok=%v, want 222 (1+10+100+100+10+1)", dFar, ok)
	}
	if dSame >= dFar {
		t.Error("same-subtree distance should be smaller")
	}
}

// Deeper siblings must be closer than shallower siblings (the motivation
// for the weighted approach).
func TestWeightedDepthIntuition(t *testing.T) {
	s := SampleMSC(10)
	deepSiblings, _ := s.Distance("05C10", "05C40") // 1+1 = 2
	midSiblings, _ := s.Distance("05Cxx", "05Bxx")  // 10+10 = 20
	topSiblings, _ := s.Distance("05-XX", "03-XX")  // 100+100 = 200
	if !(deepSiblings < midSiblings && midSiblings < topSiblings) {
		t.Errorf("distances %d %d %d not increasing with shallowness",
			deepSiblings, midSiblings, topSiblings)
	}
}

// With base weight 1 the scheme degenerates to hop counting.
func TestNonWeightedBase1(t *testing.T) {
	s := SampleMSC(1)
	d, _ := s.Distance("05C40", "03E20")
	if d != 6 {
		t.Errorf("hop distance = %d, want 6", d)
	}
	d2, _ := s.Distance("05C10", "05C40")
	if d2 != 2 {
		t.Errorf("hop distance = %d, want 2", d2)
	}
}

func TestDistanceDegenerate(t *testing.T) {
	s := SampleMSC(10)
	if d, ok := s.Distance("05C40", "05C40"); !ok || d != 0 {
		t.Errorf("self distance = %d ok=%v", d, ok)
	}
	if _, ok := s.Distance("05C40", "nope"); ok {
		t.Error("unknown class should not resolve")
	}
	if _, ok := s.Distance("nope", "05C40"); ok {
		t.Error("unknown class should not resolve")
	}
}

func TestAddClassErrors(t *testing.T) {
	s := NewScheme("x", 10)
	if err := s.AddClass("", "bad", ""); err == nil {
		t.Error("empty id accepted")
	}
	if err := s.AddClass("A", "a", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("A", "dup", ""); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := s.AddClass("B", "b", "missing"); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err == nil {
		t.Error("double Build accepted")
	}
	if err := s.AddClass("C", "c", "A"); err == nil {
		t.Error("AddClass after Build accepted")
	}
}

// Property test on random trees: distance is symmetric, zero iff equal,
// satisfies the triangle inequality, and equals the Johnson reference.
func TestDistanceMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		s := NewScheme("rand", 1+rng.Intn(10))
		ids := []string{""}
		n := 20 + rng.Intn(40)
		for i := 0; i < n; i++ {
			id := string(rune('A'+i%26)) + string(rune('0'+i/26))
			parent := ids[rng.Intn(len(ids))]
			if err := s.AddClass(id, id, parent); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if err := s.Build(); err != nil {
			t.Fatal(err)
		}
		requireJohnson(t, s)
		classes := s.Classes()
		for i := 0; i < 200; i++ {
			a := classes[rng.Intn(len(classes))]
			b := classes[rng.Intn(len(classes))]
			c := classes[rng.Intn(len(classes))]
			dab, _ := s.Distance(a, b)
			dba, _ := s.Distance(b, a)
			if dab != dba {
				t.Fatalf("asymmetric: d(%s,%s)=%d d(%s,%s)=%d", a, b, dab, b, a, dba)
			}
			if (dab == 0) != (a == b) {
				t.Fatalf("identity violated: d(%s,%s)=%d", a, b, dab)
			}
			dac, _ := s.Distance(a, c)
			dcb, _ := s.Distance(c, b)
			if dab > dac+dcb {
				t.Fatalf("triangle violated: d(%s,%s)=%d > %d+%d", a, b, dab, dac, dcb)
			}
		}
	}
}

func TestSteerPaperExample(t *testing.T) {
	s := SampleMSC(10)
	// Source entry (Fig 1's "plane graph" entry) has class 05C40; "graph"
	// has candidates object 5 (05C99) and object 6 (03E20).
	got := Steer(s, []string{"05C40"}, []Candidate{
		{Object: 5, Classes: []string{"05C99"}},
		{Object: 6, Classes: []string{"03E20"}},
	})
	if len(got) != 1 || got[0].Object != 5 {
		t.Fatalf("Steer = %+v, want object 5", got)
	}
	if got[0].Distance != 2 {
		t.Errorf("distance = %d, want 2", got[0].Distance)
	}
}

func TestSteerMultipleClassesUsesMinPair(t *testing.T) {
	s := SampleMSC(10)
	got := Steer(s, []string{"03E20", "05C10"}, []Candidate{
		{Object: 1, Classes: []string{"05C40", "11A51"}},
		{Object: 2, Classes: []string{"51A05"}},
	})
	if len(got) != 1 || got[0].Object != 1 {
		t.Fatalf("Steer = %+v", got)
	}
	if got[0].Distance != 2 { // 05C10 ↔ 05C40
		t.Errorf("distance = %d, want 2", got[0].Distance)
	}
}

func TestSteerTiesReturnAll(t *testing.T) {
	s := SampleMSC(10)
	got := Steer(s, []string{"05C99"}, []Candidate{
		{Object: 9, Classes: []string{"05C10"}},
		{Object: 3, Classes: []string{"05C40"}},
	})
	if len(got) != 2 {
		t.Fatalf("Steer = %+v, want both (tie)", got)
	}
	if got[0].Object != 3 || got[1].Object != 9 {
		t.Errorf("tie not ordered by object ID: %+v", got)
	}
}

func TestSteerNoSourceClassesReturnsAll(t *testing.T) {
	s := SampleMSC(10)
	got := Steer(s, nil, []Candidate{
		{Object: 1, Classes: []string{"05C40"}},
		{Object: 2, Classes: []string{"03E20"}},
	})
	if len(got) != 2 {
		t.Fatalf("Steer = %+v, want all candidates", got)
	}
}

func TestSteerUnclassifiedCandidates(t *testing.T) {
	s := SampleMSC(10)
	// A classified candidate beats an unclassified one.
	got := Steer(s, []string{"05C40"}, []Candidate{
		{Object: 1, Classes: nil},
		{Object: 2, Classes: []string{"05C99"}},
	})
	if len(got) != 1 || got[0].Object != 2 {
		t.Fatalf("Steer = %+v", got)
	}
	// All unclassified: return all.
	got = Steer(s, []string{"05C40"}, []Candidate{
		{Object: 1}, {Object: 2},
	})
	if len(got) != 2 {
		t.Fatalf("Steer = %+v", got)
	}
}

func TestSteerEmpty(t *testing.T) {
	s := SampleMSC(10)
	if got := Steer(s, []string{"05C40"}, nil); got != nil {
		t.Errorf("Steer(nil) = %+v", got)
	}
}

func TestMinDistance(t *testing.T) {
	s := SampleMSC(10)
	if d := MinDistance(s, []string{"05C40"}, []string{"05C99", "03E20"}); d != 2 {
		t.Errorf("MinDistance = %d, want 2", d)
	}
	if d := MinDistance(s, nil, []string{"05C99"}); d != Infinite {
		t.Errorf("MinDistance with no source = %d, want Infinite", d)
	}
	if d := MinDistance(s, []string{"bogus"}, []string{"05C99"}); d != Infinite {
		t.Errorf("MinDistance with bogus source = %d, want Infinite", d)
	}
}

// TestMinDistanceIndexMatchesMinDistance: over random class lists — unknown
// ids, the root's empty id, duplicates and empty lists included — the
// index-based distance equals MinDistance of the ids.
func TestMinDistanceIndexMatchesMinDistance(t *testing.T) {
	s := SampleMSC(10)
	ids := append(s.Classes(), "bogus", "")
	rng := rand.New(rand.NewSource(3))
	pick := func() []string {
		out := make([]string, rng.Intn(4))
		for i := range out {
			out[i] = ids[rng.Intn(len(ids))]
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		src, dst := pick(), pick()
		want := MinDistance(s, src, dst)
		if got := MinDistanceIndex(s, s.AppendIndexes(nil, src), s.AppendIndexes(nil, dst)); got != want {
			t.Fatalf("MinDistanceIndex(%q, %q) = %d, MinDistance = %d", src, dst, got, want)
		}
	}
	if _, ok := s.Index("bogus"); ok {
		t.Error("Index resolved an unknown class")
	}
}

func BenchmarkDistance(b *testing.B) {
	s := SampleMSC(10)
	classes := s.Classes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Distance(classes[i%len(classes)], classes[(i*7)%len(classes)])
	}
}

// Depth returns the depth of a class (root children are depth 1), or -1 if
// unknown. Valid after Build.
func (s *Scheme) Depth(id string) int {
	if i, ok := s.byID[id]; ok {
		return int(s.nodes[i].depth)
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
	return s.nodes[i].w - s.nodes[s.nodes[i].parent].w
}

// Candidate is one potential link target considered by the steering
// algorithm: an object (by engine-wide ID) with its list of classes.
type Candidate struct {
	Object  int64
	Classes []string
}

// Steered is a candidate annotated with its minimum class distance to the
// link source.
type Steered struct {
	Candidate
	Distance int64
}

// Steer implements Algorithm 1 of the paper: it returns the candidate
// target objects that are closest in classification to the link source.
// For every candidate, the distance is the minimum over all (source class,
// target class) pairs; the candidates attaining the overall minimum are
// returned, ordered by object ID for determinism.
//
// Degenerate cases follow the deployed Noosphere behaviour: if the source
// has no classes, or no candidate has a known class, steering cannot
// discriminate and all candidates are returned (distance Infinite).
func Steer(s *Scheme, sourceClasses []string, candidates []Candidate) []Steered {
	if len(candidates) == 0 {
		return nil
	}
	out := make([]Steered, 0, len(candidates))
	best := Infinite
	for _, c := range candidates {
		d := MinDistance(s, sourceClasses, c.Classes)
		out = append(out, Steered{Candidate: c, Distance: d})
		if d < best {
			best = d
		}
	}
	filtered := out[:0]
	for _, sc := range out {
		if sc.Distance == best {
			filtered = append(filtered, sc)
		}
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Object < filtered[j].Object })
	return filtered
}
