package morph

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSingularize(t *testing.T) {
	cases := map[string]string{
		// Regular plurals.
		"groups":     "group",
		"functions":  "function",
		"graphs":     "graph",
		"planes":     "plane",
		"numbers":    "number",
		"sets":       "set",
		"rings":      "ring",
		"fields":     "field",
		"identities": "identity",
		"properties": "property",
		"classes":    "class",
		"branches":   "branch",
		"meshes":     "mesh",
		"boxes":      "box",
		"zeroes":     "zero",
		"edges":      "edge",
		"curves":     "curve",
		"sequences":  "sequence",
		// Irregular / Latin / Greek.
		"matrices":   "matrix",
		"vertices":   "vertex",
		"indices":    "index",
		"simplices":  "simplex",
		"axes":       "axis",
		"bases":      "basis",
		"hypotheses": "hypothesis",
		"radii":      "radius",
		"loci":       "locus",
		"moduli":     "modulus",
		"tori":       "torus",
		"maxima":     "maximum",
		"minima":     "minimum",
		"extrema":    "extremum",
		"criteria":   "criterion",
		"automata":   "automaton",
		"polyhedra":  "polyhedron",
		"lemmata":    "lemma",
		"formulae":   "formula",
		"children":   "child",
		"halves":     "half",
		"leaves":     "leaf",
		// Already singular / invariant: unchanged.
		"group":    "group",
		"graph":    "graph",
		"series":   "series",
		"calculus": "calculus",
		"gauss":    "gauss",
		"modulus":  "modulus",
		"analysis": "analysis",
		"basis":    "basis",
		"this":     "this",
		"is":       "is",
		"plus":     "plus",
		"torus":    "torus",
		"bus":      "bus",
		"e":        "e",
	}
	for in, want := range cases {
		if got := Singularize(in); got != want {
			t.Errorf("Singularize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStripPossessive(t *testing.T) {
	cases := map[string]string{
		"euler's":   "euler",
		"stokes'":   "stokes",
		"cauchy’s":  "cauchy",
		"group":     "group",
		"it's":      "it",
		"functions": "functions",
	}
	for in, want := range cases {
		if got := StripPossessive(in); got != want {
			t.Errorf("StripPossessive(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFoldASCII(t *testing.T) {
	cases := map[string]string{
		"Möbius":     "Mobius",
		"Erdős":      "Erdos",
		"Čech":       "Cech",
		"Łoś":        "Los",
		"Gödel":      "Godel",
		"Poincaré":   "Poincare",
		"Weierstraß": "Weierstrass",
		"plain":      "plain",
		"":           "",
	}
	for in, want := range cases {
		if got := FoldASCII(in); got != want {
			t.Errorf("FoldASCII(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Groups":     "group",
		"Euler's":    "euler",
		"Möbius":     "mobius",
		"MATRICES":   "matrix",
		"Gödel’s":    "godel",
		"functions'": "function",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeLabel(t *testing.T) {
	cases := map[string]string{
		"Planar  Graphs":         "planar graph",
		"Connected Components":   "connected component",
		"Euler's  Formula":       "euler formula",
		" orthogonal functions ": "orthogonal function",
		// Words are the tokenizer's: an apostrophe opens no word, so "'s" is
		// the word "s" in a label as in the text "Euler 's Theorem".
		"Euler 's Theorem": "euler s theorem",
		"'s":               "s",
		"a ’ b":            "a b",
		// Punctuation other than a joiner inside a word splits it, as the
		// tokenizer splits text: these labels could not link their own text
		// while labels were split at whitespace only.
		"group (algebra)":      "group algebra",
		"ring, commutative":    "ring commutative",
		"L^p space":            "l p space",
		"rock-'n'-roll-- band": "rock-'n'-roll band",
		// An en dash joins, as a hyphen does, and folds to one; an em dash
		// splits.
		"Hahn–Banach theorem": "hahn-banach theorem",
		"Hahn-Banach theorem": "hahn-banach theorem",
		"Hahn—Banach theorem": "hahn banach theorem",
		"pages 3– and 4–":     "page 3 and 4",
		// Upper-case code points the fold table lists only in lower case
		// fold like their lower-case spelling, in one pass.
		"Gau\u1e9e \u212bngström units": "gauss angstrom unit",
	}
	for in, want := range cases {
		if got := NormalizeLabel(in); got != want {
			t.Errorf("NormalizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// Normalization must be idempotent: applying it twice equals applying once.
func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// The inputs the random search hit about once in forty runs: upper-case
	// code points whose lower-case form is in the fold table.
	for in, want := range map[string]string{"\u1e9e": "ss", "\u212b": "a", "STRA\u1e9eE": "strasse"} {
		if got := Normalize(in); got != want || !f(in) {
			t.Errorf("Normalize(%q) = %q, want %q (second pass %q)", in, got, want, Normalize(got))
		}
	}
}

// Pluralize followed by Singularize must return to the original for
// dictionary-like inputs (lowercase alphabetic words).
func TestPluralizeRoundTrip(t *testing.T) {
	words := []string{
		"group", "ring", "field", "graph", "plane", "vertex", "matrix",
		"index", "axis", "basis", "radius", "locus", "modulus", "torus",
		"maximum", "criterion", "automaton", "polyhedron", "lemma",
		"formula", "child", "half", "identity", "property", "class",
		"branch", "box", "edge", "curve", "sequence", "set", "number",
		"function", "space", "map", "category", "topology",
	}
	for _, w := range words {
		p := Pluralize(w)
		if got := Singularize(p); got != w {
			t.Errorf("Singularize(Pluralize(%q)=%q) = %q, want %q", w, p, got, w)
		}
	}
}

// FoldASCII output must be pure ASCII for inputs made of mapped runes.
func TestFoldASCIIProducesASCII(t *testing.T) {
	for r := range asciiFold {
		out := FoldASCII(string(r))
		for i := 0; i < len(out); i++ {
			if out[i] >= 0x80 {
				t.Errorf("FoldASCII(%q) = %q contains non-ASCII", string(r), out)
			}
		}
	}
}

// Fuzz-ish property: Normalize never yields a longer string than a
// reasonable bound and never contains uppercase ASCII.
func TestNormalizeShapeProperty(t *testing.T) {
	f := func(s string) bool {
		out := Normalize(s)
		return !strings.ContainsFunc(out, func(r rune) bool { return r >= 'A' && r <= 'Z' })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestWordTable: the open-addressed table singularizeOnce probes finds every
// irregular plural with its singular and every invariant word as invariant,
// misses other words, and is at least twice as large as its key count.
func TestWordTable(t *testing.T) {
	keys := len(irregularPlurals)
	for w := range invariantWords {
		if _, irregular := irregularPlurals[w]; !irregular {
			keys++
		}
	}
	if len(words.entries) != keys || len(words.slots) < 2*keys {
		t.Errorf("%d entries in %d slots for %d keys, want every key in at least %d", len(words.entries), len(words.slots), keys, 2*keys)
	}
	for w, want := range irregularPlurals {
		if e := words.find(w); e == nil || e.singular != want {
			t.Errorf("find(%q) = %+v, want singular %q", w, e, want)
		}
	}
	for w := range invariantWords {
		if _, irregular := irregularPlurals[w]; irregular {
			continue
		}
		if e := words.find(w); e == nil || e.singular != "" {
			t.Errorf("find(%q) = %+v, want an invariant word", w, e)
		}
	}
	misses := []string{"", "s", "group", "groups", "matrixes", "childrens", "serie", "graph", "mices", "Data", "radii ", "x"}
	for _, s := range irregularPlurals {
		misses = append(misses, s, s+"s")
	}
	for _, w := range misses {
		_, irregular := irregularPlurals[w]
		if irregular || invariantWords[w] {
			continue
		}
		if e := words.find(w); e != nil {
			t.Errorf("find(%q) = %+v, want a miss", w, e)
		}
	}
}

// singularizeOnce returns a word that does not end in "s" after one
// irregular-table probe, without trying the suffix rules; that is only right
// while every rule's plural ends in "s".
func TestSuffixRulesEndInS(t *testing.T) {
	for _, r := range suffixRules {
		if !strings.HasSuffix(r.plural, "s") {
			t.Errorf("suffix rule %q does not end in s: singularizeOnce skips it for words that do not", r.plural)
		}
	}
}

// TestNormalizeFastPath: a lower-case ASCII word that is not a plural comes
// back as the string it was given, without allocation, and the fast path
// agrees with the four steps it stands for on words at its edges.
func TestNormalizeFastPath(t *testing.T) {
	words := []string{"group", "graph", "x2", "well-ordered", "a", "", "class", "series", "data", "children",
		"groups", "matrices", "Groups", "it's", "x’s", "möbius", "radii", "s", "ss", "-", "0s"}
	for _, w := range words {
		if got, want := Normalize(w), Singularize(StripPossessive(FoldASCII(strings.ToLower(w)))); got != want {
			t.Errorf("Normalize(%q) = %q, its four steps give %q", w, got, want)
		}
	}
	for _, w := range []string{"group", "well-ordered", "x2", "class", "series", "me"} {
		if n := testing.AllocsPerRun(100, func() { Normalize(w) }); n != 0 {
			t.Errorf("Normalize(%q) allocates %v times", w, n)
		}
	}
}
