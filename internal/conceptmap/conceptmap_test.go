package conceptmap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// fig1Map builds the paper's Fig 1 example corpus:
//
//	1: connected graph      (05C40)
//	2: planar graph         (05C10)
//	3: connected components (05C40)
//	4: even number          (11A51)
//	5: graph [graph theory] (05C99)
//	6: graph [of a function](03E20)
//	7: plane                (51A05)
func fig1Map() *Map {
	m := New()
	m.AddObject(1, []string{"connected graph"})
	m.AddObject(2, []string{"planar graph"})
	m.AddObject(3, []string{"connected components", "connected component"})
	m.AddObject(4, []string{"even number", "even"})
	m.AddObject(5, []string{"graph"})
	m.AddObject(6, []string{"graph"})
	m.AddObject(7, []string{"plane"})
	return m
}

func scan(m *Map, text string) []Match {
	return m.Scan(tokenizer.Tokenize(text))
}

func TestLookup(t *testing.T) {
	m := fig1Map()
	if got := m.Lookup("planar graph"); len(got) != 1 || got[0] != 2 {
		t.Errorf("Lookup(planar graph) = %v", got)
	}
	if got := m.Lookup("graph"); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("Lookup(graph) = %v (want [5 6])", got)
	}
	if got := m.Lookup("unknown thing"); got != nil {
		t.Errorf("Lookup(unknown) = %v", got)
	}
}

func TestLookupNormalizes(t *testing.T) {
	m := fig1Map()
	if got := m.Lookup("Planar Graphs"); len(got) != 1 || got[0] != 2 {
		t.Errorf("Lookup(Planar Graphs) = %v", got)
	}
}

func TestScanLongestMatch(t *testing.T) {
	m := fig1Map()
	matches := scan(m, "a planar graph is a graph that can be drawn in the plane")
	if len(matches) != 3 {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].Label != "planar graph" {
		t.Errorf("first match = %q, want planar graph (longest match)", matches[0].Label)
	}
	if matches[1].Label != "graph" || len(matches[1].Candidates) != 2 {
		t.Errorf("second match = %+v", matches[1])
	}
	if matches[2].Label != "plane" {
		t.Errorf("third match = %q", matches[2].Label)
	}
}

// The paper's example: linking against all of "orthogonal", "function",
// "orthogonal function" must link the longest phrase.
func TestScanOrthogonalFunction(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"orthogonal"})
	m.AddObject(2, []string{"function"})
	m.AddObject(3, []string{"orthogonal function"})
	matches := scan(m, "consider an orthogonal function here")
	if len(matches) != 1 {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].Label != "orthogonal function" || matches[0].Candidates[0] != 3 {
		t.Errorf("match = %+v", matches[0])
	}
}

// Longest-match must fall back to the next-longest label when the longer
// phrase does not continue.
func TestScanFallbackToShorterLabel(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"normal subgroup"})
	m.AddObject(2, []string{"normal"})
	matches := scan(m, "a normal operator")
	if len(matches) != 1 || matches[0].Label != "normal" {
		t.Fatalf("matches = %+v", matches)
	}
	matches = scan(m, "a normal subgroup of G")
	if len(matches) != 1 || matches[0].Label != "normal subgroup" {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestScanPluralAndPossessive(t *testing.T) {
	m := fig1Map()
	matches := scan(m, "Planar graphs have planes")
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].Label != "planar graph" || matches[1].Label != "plane" {
		t.Errorf("labels = %q, %q", matches[0].Label, matches[1].Label)
	}
}

func TestScanMatchOffsets(t *testing.T) {
	m := fig1Map()
	text := "every planar graph is nice"
	matches := scan(m, text)
	if len(matches) != 1 {
		t.Fatalf("matches = %+v", matches)
	}
	if got := matches[0].Text(text); got != "planar graph" {
		t.Errorf("matched text = %q", got)
	}
}

func TestScanSkipsMath(t *testing.T) {
	m := fig1Map()
	matches := scan(m, "in $a planar graph$ nothing links")
	if len(matches) != 0 {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestRemoveObject(t *testing.T) {
	m := fig1Map()
	m.RemoveObject(6)
	if got := m.Lookup("graph"); len(got) != 1 || got[0] != 5 {
		t.Errorf("after remove, Lookup(graph) = %v", got)
	}
	m.RemoveObject(5)
	if got := m.Lookup("graph"); got != nil {
		t.Errorf("after removing both, Lookup(graph) = %v", got)
	}
	// Chain for "graph" should be gone entirely.
	w := morph.WordID(morph.Normalize("graph"))
	if f := m.snap.Load().byFirst[bucketOfWord(w)][w]; f != nil {
		t.Errorf("chain length = %d", f.count)
	}
	m.RemoveObject(999) // no-op
}

func TestReAddReplacesLabels(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"old label"})
	m.AddObject(1, []string{"new label"})
	if got := m.Lookup("old label"); got != nil {
		t.Errorf("old label survived re-add: %v", got)
	}
	if got := m.Lookup("new label"); len(got) != 1 {
		t.Errorf("new label missing: %v", got)
	}
	if m.Labels() != 1 {
		t.Errorf("labels = %d, want 1", m.Labels())
	}
}

func TestLabelsOfAndStats(t *testing.T) {
	m := fig1Map()
	labels := m.LabelsOf(4)
	if len(labels) != 2 {
		t.Fatalf("LabelsOf(4) = %v", labels)
	}
	s := m.Stats()
	if s.Objects != 7 {
		t.Errorf("objects = %d", s.Objects)
	}
	if s.LongestChain < 2 {
		t.Errorf("longest chain = %d (graph/planar graph/connected graph chain under distinct first words)", s.LongestChain)
	}
	if !strings.Contains(m.String(), "objects=7") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestDuplicateLabelsCollapse(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"graph", "Graphs", "graph's"})
	if m.Labels() != 1 {
		t.Errorf("labels = %d, want 1 (all normalize to graph)", m.Labels())
	}
}

func TestEmptyLabelIgnored(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"", "   ", "real label"})
	if m.Labels() != 1 {
		t.Errorf("labels = %d, want 1", m.Labels())
	}
}

// Property: for a randomly generated label set, every label planted in a
// text is found by Scan, and every reported match corresponds to an indexed
// label (soundness + completeness of the scanner on clean input).
func TestScanSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta",
		"eta", "theta", "iota", "kappa"}
	for trial := 0; trial < 50; trial++ {
		m := New()
		indexed := make(map[string]ObjectID)
		for id := ObjectID(1); id <= 8; id++ {
			n := 1 + rng.Intn(3)
			words := make([]string, n)
			for i := range words {
				words[i] = vocab[rng.Intn(len(vocab))]
			}
			label := strings.Join(words, " ")
			m.AddObject(id, []string{label})
			indexed[label] = id
		}
		// Build a text of filler + planted labels.
		var parts []string
		planted := 0
		for i := 0; i < 20; i++ {
			if rng.Intn(2) == 0 {
				parts = append(parts, "xfiller")
				continue
			}
			for label := range indexed {
				parts = append(parts, label)
				planted++
				break
			}
		}
		text := strings.Join(parts, " . ") // punctuation blocks cross-phrase runs
		matches := scan(m, text)
		if planted > 0 && len(matches) == 0 {
			t.Fatalf("trial %d: planted %d labels, found none", trial, planted)
		}
		for _, match := range matches {
			if m.Lookup(match.Label) == nil {
				t.Fatalf("trial %d: match %q not an indexed label", trial, match.Label)
			}
		}
	}
}

// Property: matches are non-overlapping and ordered.
func TestScanMatchesDisjointOrdered(t *testing.T) {
	m := fig1Map()
	text := strings.Repeat("planar graph graph plane even number connected components ", 10)
	matches := scan(m, text)
	for i := 1; i < len(matches); i++ {
		if matches[i].TokenStart < matches[i-1].TokenEnd {
			t.Fatalf("overlap: %+v then %+v", matches[i-1], matches[i])
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := fig1Map()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			m.AddObject(ObjectID(100+i%10), []string{fmt.Sprintf("label %d", i%10)})
		}
	}()
	toks := tokenizer.Tokenize("a planar graph is a graph in the plane")
	for i := 0; i < 200; i++ {
		m.Scan(toks)
	}
	<-done
}

func BenchmarkScan(b *testing.B) {
	m := New()
	for id := ObjectID(1); id <= 2000; id++ {
		m.AddObject(id, []string{fmt.Sprintf("concept%d label", id), fmt.Sprintf("term%d", id)})
	}
	m.AddObject(3000, []string{"planar graph"})
	m.AddObject(3001, []string{"graph"})
	text := strings.Repeat("a planar graph is a graph drawn with filler words around it ", 40)
	toks := tokenizer.Tokenize(text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(toks)
	}
}
