package tokenizer

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// tokenizerSeeds are the fixed cases FuzzTokenize starts from and
// TestTokenizeMatchesReference runs on every `go test`. The last two are the
// close-tag search's: lower-casing the rest of the text moved its offsets,
// so ten two-byte Ⱥ (three bytes in lower case) sliced out of range, and ten
// two-byte İ (one byte in lower case) ended the <code> span twenty bytes
// early, leaving "y" and "group" linkable. The ones after them are the closer
// memo's: openers whose closer is missing among ones whose closer is there,
// a '>' and a '}' found far ahead and asked for again, names inside names,
// names with a backslash.
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
	`\( x \( y \[ z \] \( w \[ v`,
	`\begin{a} x \begin{b} y \end{b} \begin{a} z \end{c} \begin{b} w \end{b}`,
	"<code> x <pre> y </pre> <code> z <PRE> w </pre",
	"x < y < z > w <code> q </code> < r <a> s </a",
	`\begin{ x \begin{y} } z \end{y} \begin{a \end{a} } \begin{a}\begin{b}\end{a}\begin{b}`,
	`\begin{\end{a} x \end{\end{a} y \begin{\b} z \begin{c} w \end{c\} \end{\b} v \end{c} \begin{c} u`,
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

// TestTokenizeMatchesReferenceOnOpeners strings openers, closers and words
// together at random — what byte soup rarely does — so that searches that
// fail, succeed far ahead and succeed nearby follow each other in one text.
func TestTokenizeMatchesReferenceOnOpeners(t *testing.T) {
	parts := []string{
		`\(`, `\)`, `\[`, `\]`, `\begin{`, `\begin{a}`, `\begin{b}`, `\end{a}`, `\end{b}`, `\end{`, "}",
		"<", ">", "<code>", "</code>", "<a>", "</A", "<pre x>", "</pre>", "<em>", "/>", "</",
		"$", "$$", `\$`, "`", "\n\n", " ring ", "group", " ",
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(parts[rng.Intn(len(parts))])
		}
		checkTokenize(t, b.String())
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
