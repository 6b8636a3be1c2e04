package morph

import (
	"fmt"
	"testing"
	"time"
)

// formID is the vocabulary's FormID as it stands.
func formID(form string) int32 {
	s := Current()
	return s.FormID(form)
}

// TestVocabulary checks what each entry point of the vocabulary answers for a
// surface form and for the word it normalizes to: words and surface forms are
// keys apart, and a word is a surface form only once a text spelled it so.
func TestVocabulary(t *testing.T) {
	// New to the process's vocabulary on every run of the test.
	run := time.Now().UnixNano()
	form, word := fmt.Sprintf("VocabTest%dGroups", run), fmt.Sprintf("vocabtest%dgroup", run)
	if formID(form) != 0 || WordID(word) != 0 {
		t.Fatalf("%q or %q in the vocabulary before it was interned", form, word)
	}
	words := Words()
	norm, id := Intern(form)
	if norm != word || id == 0 {
		t.Fatalf("Intern(%q) = %q, %d", form, norm, id)
	}
	if got := Words(); got != words+1 || int(id) != got {
		t.Fatalf("Words() = %d after one new word (ID %d), was %d", got, id, words)
	}
	if i := formID(form); i != id {
		t.Fatalf("FormID(%q) = %d, want %d", form, i, id)
	}
	if WordID(word) != id || Word(id) != word || WordID(form) != 0 {
		t.Fatalf("WordID(%q) = %d, Word(%d) = %q, WordID(%q) = %d", word, WordID(word), id, Word(id), form, WordID(form))
	}
	if formID(word) != 0 {
		t.Fatalf("%q is a surface form before a text spelled it so", word)
	}
	if n, i := Intern(word); n != word || i != id || InternWord(word) != id {
		t.Fatalf("interning %q again: %q, %d", word, n, i)
	}
	if i := formID(word); i != id {
		t.Fatalf("FormID(%q) = %d, want %d", word, i, id)
	}
	if Words() != words+1 {
		t.Fatal("interning a known form or word grew the vocabulary")
	}
	// InternWord adds a word, not a surface form.
	odd := fmt.Sprintf("VocabTest%dOdd", run)
	oddID := InternWord(odd)
	if oddID == id || WordID(odd) != oddID || Word(oddID) != odd {
		t.Fatalf("InternWord(%q) = %d, WordID %d", odd, oddID, WordID(odd))
	}
	if formID(odd) != 0 {
		t.Fatalf("%q became a surface form of itself", odd)
	}
	if Word(0) != "" {
		t.Fatalf("Word(0) = %q", Word(0))
	}
}

// TestVocabularyGrowth interns forms across several growths of the table and
// finds every one afterwards; two forms of one word share its ID.
func TestVocabularyGrowth(t *testing.T) {
	const n = 5000
	ids := make(map[string]int32, n)
	for i := 0; i < n; i++ {
		form := fmt.Sprintf("VocabGrow%dX", i)
		norm, id := Intern(form)
		if want := fmt.Sprintf("vocabgrow%dx", i); norm != Normalize(form) || norm != want {
			t.Fatalf("Intern(%q) norm %q", form, norm)
		}
		ids[form] = id
	}
	for form, id := range ids {
		if i := formID(form); i != id {
			t.Fatalf("FormID(%q) = %d after growth, want %d", form, i, id)
		}
		if _, i := Intern(form + "'s"); i != id {
			t.Fatalf("the possessive of %q has ID %d, want %d", form, i, id)
		}
	}
}

func TestLookupAllocs(t *testing.T) {
	Intern("vocaballocs")
	if allocs := testing.AllocsPerRun(100, func() { formID("vocaballocs"); formID("vocabmissing"); WordID("vocaballoc") }); allocs != 0 {
		t.Errorf("FormID and WordID allocate %v times", allocs)
	}
}

// TestForms interns forms of every key shape — up to three bytes, four to
// seven, eight to sixteen, longer — and requires Forms to give each back with
// its word's ID, and no word as a form.
func TestForms(t *testing.T) {
	run := time.Now().UnixNano()
	want := map[string]int32{}
	for _, form := range []string{"Zq", "Zqx", "Zqxw", fmt.Sprintf("Form%dQ", run%1000),
		fmt.Sprintf("FormsTest%dGroups", run), fmt.Sprintf("FormsTest%dEquivalenceClasses", run)} {
		_, want[form] = Intern(form)
	}
	word := fmt.Sprintf("formstest%dword", run)
	InternWord(word)
	Forms(func(form string, id int32) {
		if form == word {
			t.Errorf("Forms gave the word %q as a form", word)
		}
		if w, ok := want[form]; ok {
			if id != w {
				t.Errorf("Forms(%q) = ID %d, want %d", form, id, w)
			}
			delete(want, form)
		}
	})
	if len(want) != 0 {
		t.Errorf("Forms missed %v", want)
	}
}
