package morph

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzNormalize checks idempotence and UTF-8 validity of normalization, and
// that Normalize's fast path is invisible: on every input, valid UTF-8 or
// not, it equals the four steps it stands for.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{"Groups", "Möbius'", "MATRICES", "children", "x’s", "Łoś",
		"Stra\u1e9ee", "\u212bngström", "group", "mices", "class", "gas", "s", "data", "x-rays", "it's", "radii2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		once := Normalize(s)
		if steps := Singularize(StripPossessive(FoldASCII(strings.ToLower(s)))); once != steps {
			t.Fatalf("Normalize(%q) = %q, its four steps give %q", s, once, steps)
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
