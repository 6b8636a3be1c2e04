package tokenizer

import (
	"reflect"
	"strings"
	"testing"
)

// tokenizerSeeds are the fixed cases FuzzTokenize starts from and
// TestTokenizeMatchesReference runs on every `go test`. The last two are the
// close-tag search's: lower-casing the rest of the text moved its offsets,
// so ten two-byte Ⱥ (three bytes in lower case) sliced out of range, and ten
// two-byte İ (one byte in lower case) ended the <code> span twenty bytes
// early, leaving "y" and "group" linkable.
var tokenizerSeeds = []string{
	"",
	"a planar graph",
	"$x$ and $$y$$ and \\(z\\)",
	"<a href=x>link</a> body <em>text</em>",
	"\\begin{align}x\\end{align}",
	"`code` and $ stray dollar",
	"Möbius' strips—and more",
	"\\[ unclosed",
	"< not a tag",
	"it's Euler’s-- rock-'n'-roll ’’ x’",
	"<CODE>graph</Code > <Script>ring</SCRIPT> <pre>unclosed group",
	"<a>" + strings.Repeat("Ⱥ", 10) + "</a>",
	"<code>" + strings.Repeat("İ", 10) + " x > y group</code> ring",
}

// checkTokenize is the tokenizer's contract on one input: the offset
// invariants, no token inside an escaped span, and tokens and spans equal to
// the two-pass reference's.
func checkTokenize(t *testing.T, s string) {
	t.Helper()
	toks := Tokenize(s)
	spans := EscapeSpans(s)
	prev := -1
	for _, tok := range toks {
		if tok.Start <= prev || tok.End <= tok.Start || tok.End > len(s) {
			t.Fatalf("bad offsets %d:%d after %d in %q", tok.Start, tok.End, prev, s)
		}
		if s[tok.Start:tok.End] != tok.Text {
			t.Fatalf("text mismatch at %d in %q", tok.Start, s)
		}
		prev = tok.Start
		for _, sp := range spans {
			if tok.Start < sp.End && tok.End > sp.Start {
				t.Fatalf("token %q at %d inside escaped span %v of %q", tok.Text, tok.Start, sp, s)
			}
		}
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			t.Fatalf("overlapping spans in %q", s)
		}
	}
	if want := referenceTokenize(s); !reflect.DeepEqual(toks, want) {
		t.Fatalf("tokens of %q:\n got %+v\nwant %+v", s, toks, want)
	}
	if want := referenceEscapeSpans(s); !reflect.DeepEqual(spans, want) {
		t.Fatalf("escape spans of %q:\n got %v\nwant %v", s, spans, want)
	}
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range tokenizerSeeds {
		checkTokenize(t, s)
	}
}

// FuzzTokenize drives arbitrary byte soup through the tokenizer and checks
// its contract (run with `go test -fuzz=FuzzTokenize`).
func FuzzTokenize(f *testing.F) {
	for _, seed := range tokenizerSeeds {
		f.Add(seed)
	}
	f.Fuzz(checkTokenize)
}
