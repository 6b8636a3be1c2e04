package morph

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzNormalize checks idempotence and UTF-8 validity of normalization, of a
// word and of a label, and that Normalize's fast path and word table are
// invisible: on every input, valid UTF-8 or not, it equals the four steps it
// stands for, singularized through the irregularPlurals and invariantWords
// maps themselves. A scanned label is its own normal form, which is why
// policy.Permits compares it as it comes.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{"Groups", "Möbius'", "MATRICES", "children", "x’s", "Łoś",
		"Stra\u1e9ee", "\u212bngström", "group", "mices", "class", "gas", "s", "data", "x-rays", "it's", "radii2",
		"Even Numbers", "Hahn–Banach theorem's", "  planar   GRAPHS ", "x's-'s"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		once := Normalize(s)
		if steps := normalizeSteps(s); once != steps {
			t.Fatalf("Normalize(%q) = %q, its four steps give %q", s, once, steps)
		}
		label := NormalizeLabel(s)
		if twice := NormalizeLabel(label); twice != label {
			t.Fatalf("NormalizeLabel not idempotent: %q → %q → %q", s, label, twice)
		}
		if !utf8.ValidString(s) {
			t.Skip()
		}
		if !utf8.ValidString(once) {
			t.Fatalf("invalid UTF-8: %q → %q", s, once)
		}
		if twice := Normalize(once); twice != once {
			t.Fatalf("not idempotent: %q → %q → %q", s, once, twice)
		}
	})
}

// normalizeSteps is Normalize as its four steps, taken again, on the result
// less its trailing joiners, while it ends in one.
func normalizeSteps(s string) string {
	t := singularizeMaps(StripPossessive(FoldASCII(strings.ToLower(s))))
	if trimmed := strings.TrimRight(t, "-'"); trimmed != t {
		return normalizeSteps(trimmed)
	}
	return t
}

// singularizeMaps is Singularize as it reads with the word lists as maps:
// the reference the open-addressed table is held to.
func singularizeMaps(word string) string {
	for i := 0; i < 3; i++ {
		next := word
		switch s, ok := irregularPlurals[word]; {
		case len(word) < 2:
		case ok:
			next = s
		case word[len(word)-1] != 's' || invariantWords[word]:
		default:
			for _, r := range suffixRules {
				if len(word) > len(r.plural) && strings.HasSuffix(word, r.plural) {
					stem := word[:len(word)-len(r.plural)]
					if r.guard != nil && !r.guard(stem) {
						continue
					}
					next = stem + r.singular
					break
				}
			}
		}
		if next == word {
			return word
		}
		word = next
	}
	return word
}
