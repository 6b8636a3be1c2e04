package semnet

import (
	"bytes"
	"strings"
	"testing"
)

// chainGraph: 1 → 2 → 3, plus isolated 4.
func chainGraph() *Graph {
	g := New()
	g.AddNode(1, "alpha")
	g.AddNode(2, "beta")
	g.AddNode(3, "gamma")
	g.AddNode(4, "lonely")
	g.AddEdge(1, 2, "beta")
	g.AddEdge(2, 3, "gamma")
	return g
}

func TestDegreesAndCounts(t *testing.T) {
	g := chainGraph()
	if g.Nodes() != 4 || g.Edges() != 2 {
		t.Fatalf("nodes=%d edges=%d", g.Nodes(), g.Edges())
	}
	if len(g.out[1]) != 1 || g.InDegree(3) != 1 || len(g.out[4]) != 0 {
		t.Errorf("degrees wrong")
	}
	if g.Title(2) != "beta" {
		t.Errorf("title = %q", g.Title(2))
	}
}

func TestStats(t *testing.T) {
	g := chainGraph()
	s := g.Stats(1)
	if s.Nodes != 4 || s.Edges != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Isolated != 1 {
		t.Errorf("isolated = %d", s.Isolated)
	}
	if s.Components != 2 || s.LargestComponent != 3 {
		t.Errorf("components = %d largest = %d", s.Components, s.LargestComponent)
	}
	// Reachability: from 1 → 2 nodes, from 2 → 1, from 3 → 0, from 4 → 0.
	want := (2.0 + 1 + 0 + 0) / 4
	if s.AvgReachable != want {
		t.Errorf("avg reachable = %f, want %f", s.AvgReachable, want)
	}
}

func TestStatsEmptyAndSampling(t *testing.T) {
	if s := New().Stats(1); s.Nodes != 0 || s.AvgReachable != 0 {
		t.Errorf("empty stats = %+v", s)
	}
	g := chainGraph()
	// Sampling every 2nd node still yields a sane estimate without panics.
	s := g.Stats(2)
	if s.AvgReachable < 0 {
		t.Errorf("sampled reachable = %f", s.AvgReachable)
	}
	// sampleEvery < 1 clamps.
	_ = g.Stats(0)
}

func TestAddEdgeRegistersUnknownNodes(t *testing.T) {
	g := New()
	g.AddEdge(7, 8, "x")
	if g.Nodes() != 2 || g.Edges() != 1 {
		t.Fatalf("nodes=%d edges=%d", g.Nodes(), g.Edges())
	}
}

func TestTopHubs(t *testing.T) {
	g := New()
	for i := int64(1); i <= 4; i++ {
		g.AddNode(i, "")
	}
	g.AddEdge(1, 3, "a")
	g.AddEdge(2, 3, "a")
	g.AddEdge(4, 3, "a")
	g.AddEdge(1, 2, "b")
	hubs := g.TopHubs(2)
	if len(hubs) != 2 || hubs[0] != 3 || hubs[1] != 2 {
		t.Errorf("hubs = %v", hubs)
	}
	if got := g.TopHubs(99); len(got) != 4 {
		t.Errorf("clamped hubs = %v", got)
	}
}

func TestWriteDOT(t *testing.T) {
	g := chainGraph()
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "net"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`digraph "net"`, `n1 [label="alpha"]`, `n1 -> n2 [label="beta"]`, "}"} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, out)
		}
	}
}

func TestCycleReachability(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, "x")
	g.AddEdge(2, 1, "y")
	s := g.Stats(1)
	if s.AvgReachable != 1 { // each node reaches exactly the other
		t.Errorf("avg reachable = %f", s.AvgReachable)
	}
	if s.Components != 1 || s.LargestComponent != 2 {
		t.Errorf("components = %+v", s)
	}
}
