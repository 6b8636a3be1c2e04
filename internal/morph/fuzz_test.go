package morph

import (
	"testing"
	"unicode/utf8"
)

// FuzzNormalize checks idempotence and UTF-8 validity of normalization.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{"Groups", "Möbius'", "MATRICES", "children", "x’s", "Łoś",
		"Stra\u1e9ee", "\u212bngström"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if !utf8.ValidString(s) {
			t.Skip()
		}
		once := Normalize(s)
		if !utf8.ValidString(once) {
			t.Fatalf("invalid UTF-8: %q → %q", s, once)
		}
		if twice := Normalize(once); twice != once {
			t.Fatalf("not idempotent: %q → %q → %q", s, once, twice)
		}
	})
}
