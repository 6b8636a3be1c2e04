package conceptmap

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// FuzzAutomatonScanEquivalence is the differential oracle for the compiled
// scan path: for any corpus (newline-separated labels spread across a few
// objects, some shared) and any text, the Aho-Corasick automaton must
// produce exactly the match stream the chained-hash ScanAppend produces —
// same labels, same token ranges, same byte offsets, same candidate sets
// (including slice identity of the shared snapshot payload). A random half
// of the text's surface forms enter the vocabulary first, as a stored body's
// would, so that the scan meets tokens that came resolved and tokens it has
// to resolve by their Norm.
func FuzzAutomatonScanEquivalence(f *testing.F) {
	f.Add("planar graph\ngraph\northogonal function", "every planar graph has an orthogonal function on a graph")
	f.Add("a b c x\nb", "a b c d")
	f.Add("a b\nb c", "a b c a b c")
	f.Add("b\na b c", "a b c")
	f.Add("a b c\nb c d\nc d\nd e", "a b c d e a b c d e")
	f.Add("a a\na a a\na", "a a a a a")
	f.Add("graphs\ngraph theory", "Graph theory studies graphs' properties.")
	f.Add("", "text with no labels at all")
	f.Add("x y z", "")
	f.Add("\xc3\xa9quation diff\xc3\xa9rentielle\n\xc3\xa9quation", "une \xc3\xa9quation diff\xc3\xa9rentielle simple")

	f.Fuzz(func(t *testing.T, labelsBlob, text string) {
		if len(labelsBlob) > 4096 || len(text) > 4096 {
			return
		}
		m := New()
		labels := strings.Split(labelsBlob, "\n")
		// Spread labels across several objects, deliberately overlapping so
		// candidate sets have more than one element.
		for i, l := range labels {
			id := ObjectID(i % 5)
			m.AddObject(id, append(m.LabelsOf(id), l))
			if i%3 == 0 {
				alt := ObjectID(5 + i%2)
				m.AddObject(alt, append(m.LabelsOf(alt), l))
			}
		}
		m.CompileNow()

		rng := rand.New(rand.NewSource(int64(len(labelsBlob))<<32 | int64(len(text))))
		for _, tok := range tokenizer.Tokenize(text) {
			if rng.Intn(2) == 0 {
				morph.Intern(tok.Text)
			}
		}
		tokens := tokenizer.Tokenize(text)
		snap := m.snap.Load()
		want := snap.scanChained(nil, tokens, true)
		got, usedAut := m.ScanAppendAuto(nil, tokens)
		if !usedAut {
			t.Fatal("automaton did not serve the scan after CompileNow")
		}
		if len(want) != len(got) {
			t.Fatalf("match count: chained=%d automaton=%d\nchained: %+v\nautomaton: %+v\nlabels: %q\ntext: %q",
				len(want), len(got), want, got, labels, text)
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("match %d differs:\nchained:   %+v\nautomaton: %+v\nlabels: %q\ntext: %q",
					i, want[i], got[i], labels, text)
			}
			// Candidate slices must be the very same snapshot-owned slice,
			// not merely equal: the engine treats them as shared/immutable.
			if len(want[i].Candidates) > 0 && &want[i].Candidates[0] != &got[i].Candidates[0] {
				t.Fatalf("match %d candidates are equal but not aliased", i)
			}
		}
	})
}
