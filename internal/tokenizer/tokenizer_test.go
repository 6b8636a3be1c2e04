package tokenizer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"nnexus/internal/morph"
	"nnexus/internal/workload"
)

// tokenTexts returns the words of text that its tokens span.
func tokenTexts(text string) []string {
	ts := Tokenize(text)
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = text[t.Start:t.End]
	}
	return out
}

// tokenNorms returns the normal forms of the words of text.
func tokenNorms(text string) []string {
	ts := Tokenize(text)
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.NormalForm(text)
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	text := "A planar graph is a graph."
	want := []string{"A", "planar", "graph", "is", "a", "graph"}
	if got := tokenTexts(text); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	norms := tokenNorms(text)
	if norms[2] != "graph" || norms[5] != "graph" {
		t.Fatalf("norms = %v", norms)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "planar graphs embed"
	ts := Tokenize(text)
	for i, want := range []string{"planar", "graphs", "embed"} {
		if got := text[ts[i].Start:ts[i].End]; got != want {
			t.Errorf("token %d spans [%d,%d) = %q, want %q", i, ts[i].Start, ts[i].End, got, want)
		}
	}
	if norm := ts[1].NormalForm(text); norm != "graph" {
		t.Errorf("expected plural normalization, got %q", norm)
	}
}

func TestTokenizeSkipsInlineMath(t *testing.T) {
	text := "the function $f(x) = graph$ is continuous"
	for _, tok := range Tokenize(text) {
		if raw := text[tok.Start:tok.End]; raw == "f" || raw == "x" || (raw == "graph" && tok.Start > 13) {
			t.Errorf("token %q from inside math region", raw)
		}
	}
	got := strings.Join(tokenTexts(text), " ")
	if got != "the function is continuous" {
		t.Errorf("tokens = %q", got)
	}
}

func TestTokenizeSkipsDisplayMath(t *testing.T) {
	got := strings.Join(tokenTexts(`before $$\sum graph$$ after \[x graph\] end \(y graph\) tail`), " ")
	if got != "before after end tail" {
		t.Errorf("tokens = %q", got)
	}
}

func TestTokenizeSkipsTeXEnvironment(t *testing.T) {
	text := "intro \\begin{align} graph &= x \\end{align} outro"
	got := strings.Join(tokenTexts(text), " ")
	if got != "intro outro" {
		t.Errorf("tokens = %q", got)
	}
}

func TestTokenizeSkipsCodeSpans(t *testing.T) {
	got := strings.Join(tokenTexts("call `graph.AddEdge()` to add an edge"), " ")
	if got != "call to add an edge" {
		t.Errorf("tokens = %q", got)
	}
}

func TestTokenizeSkipsExistingAnchors(t *testing.T) {
	text := `a <a href="/x">planar graph</a> has no crossing edges`
	got := strings.Join(tokenTexts(text), " ")
	if got != "a has no crossing edges" {
		t.Errorf("tokens = %q", got)
	}
}

func TestTokenizeHTMLTagsButLinkableBody(t *testing.T) {
	text := `<em>planar graph</em> inside emphasis`
	got := strings.Join(tokenTexts(text), " ")
	if got != "planar graph inside emphasis" {
		t.Errorf("tokens = %q", got)
	}
}

func TestTokenizeLessThanIsNotATag(t *testing.T) {
	got := strings.Join(tokenTexts("if x < y then the graph is planar"), " ")
	if got != "if x y then the graph is planar" {
		t.Errorf("tokens = %q", got)
	}
}

func TestTokenizeEscapedDollar(t *testing.T) {
	got := strings.Join(tokenTexts(`it costs \$5 for a graph`), " ")
	if !strings.Contains(got, "graph") {
		t.Errorf("escaped dollar swallowed text: %q", got)
	}
}

func TestTokenizeUnclosedMathDoesNotSwallow(t *testing.T) {
	// A stray $ with no closing partner before a blank line should not
	// escape the rest of the document.
	got := strings.Join(tokenTexts("price is $5 and\n\nthe graph is planar"), " ")
	if !strings.Contains(got, "graph") {
		t.Errorf("stray $ swallowed text: %q", got)
	}
}

func TestTokenizeHyphenAndPossessive(t *testing.T) {
	text := "Euler's well-defined formula"
	texts := tokenTexts(text)
	if len(texts) != 3 {
		t.Fatalf("tokens = %v", texts)
	}
	if norm := tokenNorms(text)[0]; norm != "euler" {
		t.Errorf("norm = %q, want euler", norm)
	}
	if texts[1] != "well-defined" {
		t.Errorf("hyphenated token = %q", texts[1])
	}
}

func TestTokenizeUnicode(t *testing.T) {
	norms := tokenNorms("the Möbius strip")
	if len(norms) != 3 {
		t.Fatalf("tokens = %v", norms)
	}
	if norms[1] != "mobius" {
		t.Errorf("norm = %q, want mobius", norms[1])
	}
}

// TestTokenSize pins a token at a span and a word ID: the text is the
// caller's, and the word's normal form the vocabulary's.
func TestTokenSize(t *testing.T) {
	if n := unsafe.Sizeof(Token{}); n > 24 {
		t.Errorf("a Token is %d bytes, want at most 24", n)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if ts := Tokenize(""); len(ts) != 0 {
		t.Errorf("tokens = %v", ts)
	}
	if ts := Tokenize("$$$$"); len(ts) != 0 {
		t.Errorf("tokens = %v", ts)
	}
}

func TestEscapeSpansSortedNonOverlapping(t *testing.T) {
	text := "a $x$ b `c` d <a href=q>e</a> f $$g$$ h \\(i\\) j"
	spans := EscapeSpans(text)
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			t.Fatalf("spans overlap or unsorted: %v", spans)
		}
	}
}

// Property: token offsets are strictly increasing and in bounds, and each
// token's [Start,End) slice is a whole word.
func TestTokenizeOffsetInvariant(t *testing.T) {
	f := func(s string) bool {
		ts := Tokenize(s)
		prev := -1
		for _, tok := range ts {
			if tok.Start <= prev || tok.End <= tok.Start || tok.End > len(s) {
				return false
			}
			if morph.WordEnd(s, tok.Start) != tok.End {
				return false
			}
			prev = tok.Start
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Property: no token ever lies inside an escape span.
func TestTokensAvoidEscapeSpans(t *testing.T) {
	f := func(s string) bool {
		spans := EscapeSpans(s)
		for _, tok := range Tokenize(s) {
			for _, sp := range spans {
				if tok.Start < sp.End && tok.End > sp.Start {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The close tag of an escaped element is searched in the text's own bytes.
// Searching a lower-cased copy, as the tokenizer once did, applies offsets
// to the text that are only valid in the copy: Ⱥ grows from two bytes to
// three in lower case, which sliced out of range, and İ shrinks from two to
// one, which ended the span inside the element.
func TestEscapedElementWithCaseChangingLetters(t *testing.T) {
	grow := "<a>" + strings.Repeat("Ⱥ", 10) + "</a>"
	if ts := tokenTexts(grow); len(ts) != 0 {
		t.Errorf("tokens inside an anchor: %v", ts)
	}
	if spans := EscapeSpans(grow); len(spans) != 1 || spans[0] != (Span{0, len(grow)}) {
		t.Errorf("spans = %v, want the whole %d bytes", spans, len(grow))
	}
	shrink := "<code>" + strings.Repeat("İ", 10) + " x > y group</code> ring"
	if got := strings.Join(tokenTexts(shrink), " "); got != "ring" {
		t.Errorf("tokens = %q, want only the word after the element", got)
	}
	// Only ASCII letters fold: U+212A KELVIN SIGN lower-cases to "k", and
	// "</ſtyle" is not a close tag.
	if got := strings.Join(tokenTexts("<style>a</ſtyle>b</STYLE>c"), " "); got != "c" {
		t.Errorf("tokens = %q, want only the word after the element", got)
	}
}

// doubling measures what doubling n costs TokenizeAppend on text(n): the
// fastest pass over text(2n), and how many times longer a pass over it takes
// than one over text(n). The passes are into warm buffers — the tokenizer's own
// time, without the buffers' growth — and the ratio is the median over nine
// pairs of passes run back to back: a collection, a neighbour on a shared host
// or a clock step slows or speeds both of a pair, or spoils a pair or two, where
// the fastest of each size taken apart was seen to stray from 2x to past 3x.
func doubling(t *testing.T, n int, text func(n int) string) (ratio float64, full time.Duration) {
	t.Helper()
	texts := [2]string{text(n), text(2 * n)}
	bufs := [2][]Token{Tokenize(texts[0]), Tokenize(texts[1])}
	if len(bufs[0]) < n || len(bufs[1]) < 2*n {
		t.Fatalf("%d and %d tokens for n = %d and %d", len(bufs[0]), len(bufs[1]), n, 2*n)
	}
	full = math.MaxInt64
	var ratios [9]float64
	for rep := range ratios {
		var took [2]time.Duration
		for k := range texts {
			start := time.Now()
			bufs[k] = TokenizeAppend(bufs[k][:0], texts[k])
			took[k] = time.Since(start)
		}
		ratios[rep] = float64(took[1]) / float64(took[0])
		full = min(full, took[1])
	}
	sort.Float64s(ratios[:])
	return ratios[len(ratios)/2], full
}

// TestTokenizeLinearInEscapedElements bounds the cost of escaped elements:
// each one's close tag is found by a forward search from its open tag, not
// by lower-casing the rest of the document first, which made n elements cost
// n² (8 s for the 448 KB below).
func TestTokenizeLinearInEscapedElements(t *testing.T) {
	text := func(n int) string { return strings.Repeat("<code>X</code> Group theory ", n) }
	if got := len(Tokenize(text(8000))); got != 2*8000 {
		t.Fatalf("%d tokens for 8,000 elements, want two each", got)
	}
	ratio, large := doubling(t, 8000, text)
	t.Logf("code: %.2f, %v", ratio, large)
	if large > 100*time.Millisecond {
		t.Errorf("16,000 escaped elements took %v, want under 100ms", large)
	}
	if ratio > 3 {
		t.Errorf("doubling the elements to 16,000 took %.2f times as long (%v), more than 3x", ratio, large)
	}
}

// TestTokenizeAppendAllocs gates the tokenizer's allocations into a warm
// buffer: none for lower-case ASCII singular words, whose normal form is the
// token itself; for a generated entry body at most one per eight tokens — a
// normal form built only where case folding or singularising changed the
// word — and none once its words are in the vocabulary, as a stored body's
// are.
func TestTokenizeAppendAllocs(t *testing.T) {
	plain := strings.Repeat("let the graph embed in a plane so that no edge of it may cross another one ", 20)
	c, err := workload.Generate(workload.DefaultParams(40))
	if err != nil {
		t.Fatal(err)
	}
	body := c.Entries[len(c.Entries)-1].Entry.Body
	for _, tc := range []struct {
		name, text string
		perToken   float64
		intern     bool
	}{{"plain", plain, 0, false}, {"generated body", body, 1.0 / 8, false}, {"stored body", body, 0, true}} {
		buf := TokenizeAppend(nil, tc.text)
		if len(buf) < 50 {
			t.Fatalf("%s: only %d tokens", tc.name, len(buf))
		}
		if tc.intern {
			TokenizeInternAppend(nil, tc.text)
		}
		allocs := testing.AllocsPerRun(100, func() { buf = TokenizeAppend(buf[:0], tc.text) })
		if allocs > tc.perToken*float64(len(buf)) {
			t.Errorf("%s: %v allocations for %d tokens, want at most %v per token", tc.name, allocs, len(buf), tc.perToken)
		}
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("A planar graph is a graph that can be drawn in the plane $x^2$ so that its edges intersect only at their end vertices. ", 50)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}

// An opener whose closer is missing used to search the rest of the text, and
// the next one the same rest again: 40,000 of them took seconds, on the write
// path, under the engine's write lock. The time must grow with the text —
// also where every opener names another environment and some other one ends.
func TestTokenizeLinearInUnclosedOpeners(t *testing.T) {
	shapes := map[string]func(n int) string{}
	for _, opener := range []string{"<code>", `\begin{eq}`, `\(`, `\[`, "<", `\begin{`} {
		shapes[opener] = func(n int) string { return strings.Repeat(opener+" x ", n) }
	}
	shapes[`\begin{a1} \end{x} \begin{a2} \end{x}`] = func(n int) string {
		var b strings.Builder
		for k := 0; k < n; k++ {
			fmt.Fprintf(&b, `\begin{a%d} \end{x} `, k)
		}
		return b.String()
	}
	for name, text := range shapes {
		ratio, full := doubling(t, 20000, text)
		t.Logf("%s: %.2f, %v", name, ratio, full)
		if full > 100*time.Millisecond {
			t.Errorf("%s x 40000 took %v, want under 100ms", name, full)
		}
		if ratio > 3 {
			t.Errorf("%s: 40000 took %.2f times as long as 20000 (%v): more than tripled", name, ratio, full)
		}
	}
}
