package workload

import (
	"strings"
	"testing"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

func TestGenerateShape(t *testing.T) {
	p := DefaultParams(400)
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Entries) != 400 {
		t.Fatalf("entries = %d", len(c.Entries))
	}
	if len(c.CommonDefiners) != p.CommonConcepts {
		t.Errorf("common definers = %d, want %d", len(c.CommonDefiners), p.CommonConcepts)
	}
	if len(c.HomonymSenses) != p.HomonymLabels {
		t.Errorf("homonyms = %d, want %d", len(c.HomonymSenses), p.HomonymLabels)
	}
	if c.Scheme.Len() != p.Areas*(1+p.MidPerArea*(1+p.LeavesPerMid)) {
		t.Errorf("scheme classes = %d", c.Scheme.Len())
	}
	for i, ge := range c.Entries {
		if ge.Index != i+1 {
			t.Fatalf("index %d at position %d", ge.Index, i)
		}
		if len(ge.Entry.Classes) != 1 || !c.Scheme.Has(ge.Entry.Classes[0]) {
			t.Fatalf("entry %d classes = %v", ge.Index, ge.Entry.Classes)
		}
		if ge.Entry.Body == "" || ge.Entry.Title == "" {
			t.Fatalf("entry %d empty", ge.Index)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultParams(200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultParams(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Entries {
		if a.Entries[i].Entry.Title != b.Entries[i].Entry.Title ||
			a.Entries[i].Entry.Body != b.Entries[i].Entry.Body {
			t.Fatalf("entry %d differs between runs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Params{Entries: 2}); err == nil {
		t.Error("tiny corpus accepted")
	}
	p := DefaultParams(100)
	p.CommonConcepts = len(commonWords) + 1
	if _, err := Generate(p); err == nil {
		t.Error("too many common concepts accepted")
	}
	p = DefaultParams(100)
	p.HomonymLabels = 100
	if _, err := Generate(p); err == nil {
		t.Error("too many homonyms accepted")
	}
}

// The homonym pairs must be in different areas — otherwise steering could
// not distinguish them and the experiment design collapses.
func TestHomonymSensesInDifferentAreas(t *testing.T) {
	c, err := Generate(DefaultParams(300))
	if err != nil {
		t.Fatal(err)
	}
	for label, senses := range c.HomonymSenses {
		if len(senses) != 2 {
			t.Fatalf("homonym %q has %d senses", label, len(senses))
		}
		a := c.Entries[senses[0]-1].Area
		b := c.Entries[senses[1]-1].Area
		if a == b {
			t.Errorf("homonym %q senses share area %s", label, a)
		}
	}
}

// Every planted invocation must actually be matchable: the label's
// normalized form appears in the tokenized body.
func TestTruthInvocationsAppearInBody(t *testing.T) {
	c, err := Generate(DefaultParams(150))
	if err != nil {
		t.Fatal(err)
	}
	for _, ge := range c.Entries {
		toks := tokenizer.Tokenize(ge.Entry.Body)
		norms := make([]string, len(toks))
		for i, tok := range toks {
			norms[i] = tok.NormalForm(ge.Entry.Body)
		}
		body := " " + strings.Join(norms, " ") + " "
		for _, inv := range ge.Truth {
			if !strings.Contains(body, " "+inv.Label+" ") {
				t.Fatalf("entry %d: invocation %q not found in normalized body", ge.Index, inv.Label)
			}
		}
	}
}

// No truth invocation may reference the entry itself or a non-existent
// entry, and labels within one entry's truth are distinct.
func TestTruthWellFormed(t *testing.T) {
	c, err := Generate(DefaultParams(250))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ge := range c.Entries {
		seen := map[string]bool{}
		for _, inv := range ge.Truth {
			if inv.Target == ge.Index {
				t.Fatalf("entry %d invokes itself", ge.Index)
			}
			if inv.Target < 0 || inv.Target > len(c.Entries) {
				t.Fatalf("entry %d: bad target %d", ge.Index, inv.Target)
			}
			if seen[inv.Label] {
				t.Fatalf("entry %d: duplicate label %q", ge.Index, inv.Label)
			}
			seen[inv.Label] = true
			kinds[inv.Kind]++
		}
	}
	for _, k := range []string{"regular", "homonym", "homonym-cross", "common-math", "common-nonmath"} {
		if kinds[k] == 0 {
			t.Errorf("no %q invocations generated", k)
		}
	}
}

// The filler vocabulary must stay disjoint from all concept-label words
// after normalization, or filler would create phantom matches.
func TestFillerDisjointFromConcepts(t *testing.T) {
	conceptWords := map[string]bool{}
	for _, w := range conceptAdjectives {
		conceptWords[morph.Normalize(w)] = true
	}
	for _, w := range conceptNouns {
		conceptWords[morph.Normalize(w)] = true
	}
	for _, w := range commonWords {
		conceptWords[morph.Normalize(w)] = true
	}
	for _, f := range fillerWords {
		if conceptWords[morph.Normalize(f)] {
			t.Errorf("filler word %q collides with a concept word", f)
		}
	}
}

// Filler must never form a first word of any generated label — otherwise
// the concept map could match phrases starting inside filler. Since labels
// start with adjectives or common words only, checking those suffices.
func TestCommonWordsCount(t *testing.T) {
	if len(commonWords) != 67 {
		t.Errorf("common words = %d, want 67 (Table 2's policy count)", len(commonWords))
	}
	got := CommonWords()
	got[0] = "mutated"
	if commonWords[0] == "mutated" {
		t.Error("CommonWords aliased internal slice")
	}
}

func TestPolicyFor(t *testing.T) {
	c, err := Generate(DefaultParams(200))
	if err != nil {
		t.Fatal(err)
	}
	idx, text, err := c.PolicyFor("even")
	if err != nil {
		t.Fatal(err)
	}
	if idx != c.CommonDefiners["even"] {
		t.Errorf("index = %d", idx)
	}
	if !strings.Contains(text, "forbid even") || !strings.Contains(text, "allow even from") {
		t.Errorf("policy = %q", text)
	}
	if _, _, err := c.PolicyFor("zygomorphic"); err == nil {
		t.Error("unknown label accepted")
	}
}

func TestSubset(t *testing.T) {
	c, err := Generate(DefaultParams(300))
	if err != nil {
		t.Fatal(err)
	}
	sub := c.Subset(100)
	if len(sub.Entries) != 100 {
		t.Fatalf("subset entries = %d", len(sub.Entries))
	}
	for _, ge := range sub.Entries {
		for _, inv := range ge.Truth {
			if inv.Target > 100 {
				t.Fatalf("subset truth points outside: %d", inv.Target)
			}
		}
	}
	for _, idx := range sub.CommonDefiners {
		if idx > 100 {
			t.Fatalf("subset common definer outside: %d", idx)
		}
	}
	// Full-size subset returns the corpus itself.
	if got := c.Subset(500); got != c {
		t.Error("oversized subset did not return original")
	}
}

// Invocation mixes should roughly match the configured probabilities.
func TestInvocationMixCalibration(t *testing.T) {
	p := DefaultParams(1000)
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	total, kinds := 0, map[string]int{}
	for _, ge := range c.Entries {
		for _, inv := range ge.Truth {
			kinds[inv.Kind]++
			total++
		}
	}
	frac := func(k string) float64 { return float64(kinds[k]) / float64(total) }
	common := frac("common-math") + frac("common-nonmath")
	if common < p.PCommon*0.6 || common > p.PCommon*1.6 {
		t.Errorf("common fraction = %.3f, configured %.3f", common, p.PCommon)
	}
	hom := frac("homonym") + frac("homonym-cross")
	if hom < p.PHomonym*0.6 || hom > p.PHomonym*1.6 {
		t.Errorf("homonym fraction = %.3f, configured %.3f", hom, p.PHomonym)
	}
	cross := frac("homonym-cross") / hom
	if cross < p.PCrossTopic*0.5 || cross > p.PCrossTopic*2 {
		t.Errorf("cross-topic fraction of homonyms = %.3f, configured %.3f", cross, p.PCrossTopic)
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(DefaultParams(500)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSecondClassFraction(t *testing.T) {
	p := DefaultParams(300)
	p.SecondClassFraction = 0.5
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, ge := range c.Entries {
		switch len(ge.Entry.Classes) {
		case 1:
		case 2:
			multi++
			// Both classes stay within the entry's area, keeping topics
			// coherent.
			for _, cl := range ge.Entry.Classes {
				if !c.Scheme.Has(cl) {
					t.Fatalf("entry %d has unknown class %q", ge.Index, cl)
				}
			}
		default:
			t.Fatalf("entry %d has %d classes", ge.Index, len(ge.Entry.Classes))
		}
	}
	if multi < 60 || multi > 240 {
		t.Errorf("multi-class entries = %d of 300, configured 0.5", multi)
	}
}

// TestQueryTexts: the load generator's free-text traffic is deterministic
// per (n, seed) and actually invokes corpus titles.
func TestQueryTexts(t *testing.T) {
	p := DefaultParams(120)
	p.Seed = 5
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a := c.QueryTexts(50, 99)
	b := c.QueryTexts(50, 99)
	if len(a) != 50 {
		t.Fatalf("got %d texts, want 50", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("text %d differs across identical seeds", i)
		}
	}
	other := c.QueryTexts(50, 100)
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical texts")
	}
	// Every text must mention at least one real entry title.
	for i, text := range a {
		found := false
		for _, ge := range c.Entries {
			if strings.Contains(text, ge.Entry.Title) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("text %d mentions no corpus title: %q", i, text)
		}
	}
}
