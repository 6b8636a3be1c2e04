package tokenizer

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nnexus/internal/morph"
)

// tokenizerSeeds are the fixed cases FuzzTokenize starts from and
// TestTokenizeMatchesReference runs on every `go test`. The last two are the
// close-tag search's: lower-casing the rest of the text moved its offsets,
// so ten two-byte Ⱥ (three bytes in lower case) sliced out of range, and ten
// two-byte İ (one byte in lower case) ended the <code> span twenty bytes
// early, leaving "y" and "group" linkable. The ones after them are the closer
// memo's: openers whose closer is missing among ones whose closer is there,
// a '>' and a '}' found far ahead and asked for again, names inside names,
// names with a backslash. Then a word whose plural's stem ends in a joiner,
// and the word-run loop's close the list.
var tokenizerSeeds = append([]string{
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
	"Hahn–Banach –x– Cauchy-–Schwarz pages 3–5–",
	"<CODE>graph</Code > <Script>ring</SCRIPT> <pre>unclosed group",
	"<a>" + strings.Repeat("Ⱥ", 10) + "</a>",
	"<code>" + strings.Repeat("İ", 10) + " x > y group</code> ring",
	`\( x \( y \[ z \] \( w \[ v`,
	`\begin{a} x \begin{b} y \end{b} \begin{a} z \end{c} \begin{b} w \end{b}`,
	"<code> x <pre> y </pre> <code> z <PRE> w </pre",
	"x < y < z > w <code> q </code> < r <a> s </a",
	`\begin{ x \begin{y} } z \end{y} \begin{a \end{a} } \begin{a}\begin{b}\end{a}\begin{b}`,
	`\begin{\end{a} x \end{\end{a} y \begin{\b} z \begin{c} w \end{c\} \end{\b} v \end{c} \begin{c} u`,
	"0-S x-'s x-es Ab-s",
}, wordRunSeeds()...)

// wordRunSeeds are the word-run loop's, which reads a word eight bytes at a
// time from its second byte: words that end just before, on and just past the
// first and the second eight-byte read, at the text's end and mid-text; and a
// joiner, a letter past ASCII, an opener and the bytes beside the letter and
// digit ranges at each offset of the first read.
func wordRunSeeds() (seeds []string) {
	for _, n := range []int{7, 8, 9, 15, 16, 17} {
		w := "Q" + strings.Repeat("uaTern9n", 3)[:n-1]
		seeds = append(seeds, "a "+w, w+" b", "("+w+"s)", w+"'s "+w)
	}
	for off := 1; off <= 8; off++ {
		head, tail := "Planarity"[:off], "graphings"
		for _, c := range []string{"-", "'", "’", "–", "é", "Ö", "$x$", "<em>", "`c`", "\\(y\\)", "@", "[", "{", "/", ":", " "} {
			seeds = append(seeds, head+c+tail, "an "+head+c)
		}
	}
	return seeds
}

// checkTokenize is the tokenizer's contract on one input: the offset
// invariants, no token inside an escaped span, every Word the vocabulary's ID
// of the normal form of the token's text, 0 exactly when the vocabulary holds
// no such word; tokens, read as a span and the word they name, and spans
// equal to the two-pass reference's; and a text with no escape opener, read
// as a label, normalizes to its tokens' words — labels and text split into
// the same words.
func checkTokenize(t *testing.T, s string) {
	t.Helper()
	toks := Tokenize(s)
	spans := EscapeSpans(s)
	prev := -1
	got := make([]referenceToken, len(toks))
	var norms []string
	for i, tok := range toks {
		if tok.Start <= prev || tok.End <= tok.Start || tok.End > len(s) {
			t.Fatalf("bad offsets %d:%d after %d in %q", tok.Start, tok.End, prev, s)
		}
		prev = tok.Start
		raw := s[tok.Start:tok.End]
		norm := morph.Normalize(raw)
		if want := morph.WordID(norm); tok.Word != want {
			t.Fatalf("token %q: Word %d, want %d, the ID of %q", raw, tok.Word, want, norm)
		}
		got[i] = referenceToken{tok.Start, tok.End, tok.NormalForm(s)}
		if norm != "" {
			norms = append(norms, norm)
		}
	}
	if !strings.ContainsAny(s, "$\\`<") {
		if got, want := morph.NormalizeLabel(s), strings.Join(norms, " "); got != want {
			t.Fatalf("NormalizeLabel(%q) = %q, its tokens' norms %q", s, got, want)
		}
	}
	for _, tok := range toks {
		for _, sp := range spans {
			if tok.Start < sp.End && tok.End > sp.Start {
				t.Fatalf("token %q at %d inside escaped span %v of %q", s[tok.Start:tok.End], tok.Start, sp, s)
			}
		}
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			t.Fatalf("overlapping spans in %q", s)
		}
	}
	if want := referenceTokenize(s); !slices.Equal(got, want) {
		t.Fatalf("tokens of %q:\n got %+v\nwant %+v", s, got, want)
	}
	if want := referenceEscapeSpans(s); !reflect.DeepEqual(spans, want) {
		t.Fatalf("escape spans of %q:\n got %v\nwant %v", s, spans, want)
	}
}

// Span marks a half-open byte range [Start, End) of the input.
type Span struct {
	Start, End int
}

// EscapeSpans returns the unlinkable regions of text (see escapes), sorted
// and non-overlapping: the regions the tokenizer's one pass skips, as the
// two-pass reference's span list.
func EscapeSpans(text string) []Span {
	var spans []Span
	esc := escapes{text: text}
	for i := 0; i < len(text); {
		if end, ok := esc.end(i); ok {
			spans = append(spans, Span{i, end})
			i = end
		} else {
			i++
		}
	}
	return spans
}

// TestTokenizeMatchesReference runs every seed against the reference twice:
// first as read input, whose words the vocabulary may lack, then once
// TokenizeInternAppend has stored it, so that every token takes the
// one-probe path a stored body's tokens take.
func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range tokenizerSeeds {
		checkTokenize(t, s)
	}
	internSeeds(t)
	for _, s := range tokenizerSeeds {
		checkTokenize(t, s)
	}
}

// internSeeds stores the seeds as bodies are stored, through
// TokenizeInternAppend, so that the tokens of the inputs grown from them come
// both resolved and not. Interning changes no token but those whose words
// were new, and leaves every surface form one probe away.
func internSeeds(t testing.TB) {
	for _, s := range tokenizerSeeds {
		read := Tokenize(s)
		stored := TokenizeInternAppend(nil, s)
		if len(stored) != len(read) {
			t.Fatalf("%q: %d tokens stored, %d read", s, len(stored), len(read))
		}
		for i, tok := range stored {
			raw := s[tok.Start:tok.End]
			if tok.Start != read[i].Start || tok.End != read[i].End || read[i].Word != 0 && tok.Word != read[i].Word {
				t.Fatalf("%q: token %d stored as %+v, read as %+v", s, i, tok, read[i])
			}
			if vocab := morph.Current(); tok.Word == 0 || vocab.FormID(raw) != tok.Word || morph.Word(tok.Word) != morph.Normalize(raw) {
				t.Fatalf("%q: stored token %q has Word %d, FormID %d", s, raw, tok.Word, vocab.FormID(raw))
			}
		}
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
	internSeeds(f)
	f.Fuzz(checkTokenize)
}
