package latex

import (
	"strings"
	"testing"

	"nnexus/internal/tokenizer"
)

func TestTextCommandsUnwrap(t *testing.T) {
	cases := map[string]string{
		`a \emph{planar graph} is nice`:            "a planar graph is nice",
		`\textbf{bold} and \textit{italic}`:        "bold and italic",
		`nested \emph{\textbf{planar graph}} here`: "nested planar graph here",
		`\mbox{do not break}`:                      "do not break",
	}
	for in, want := range cases {
		if got := ToText(in); got != want {
			t.Errorf("ToText(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMathPreservedVerbatim(t *testing.T) {
	cases := []string{
		`the map $f(x) = x^2$ is smooth`,
		`display $$\sum_{i=1}^n i$$ here`,
		`inline \(a+b\) and display \[c+d\] math`,
	}
	for _, in := range cases {
		got := ToText(in)
		for _, frag := range []string{"$f(x) = x^2$", `$$\sum_{i=1}^n i$$`, `\(a+b\)`, `\[c+d\]`} {
			if strings.Contains(in, frag) && !strings.Contains(got, frag) {
				t.Errorf("ToText(%q) lost math %q: %q", in, frag, got)
			}
		}
	}
}

func TestMathEnvironmentPreserved(t *testing.T) {
	in := "before \\begin{align} x &= y \\end{align} after"
	got := ToText(in)
	if !strings.Contains(got, `\begin{align}`) || !strings.Contains(got, `\end{align}`) {
		t.Errorf("math environment lost: %q", got)
	}
	// And the tokenizer then refuses to tokenize inside it.
	toks := tokenizer.Tokenize(got)
	for _, tok := range toks {
		if raw := got[tok.Start:tok.End]; raw == "x" || raw == "y" {
			t.Errorf("token from inside math env: %+v", tok)
		}
	}
}

func TestNonMathEnvironmentMarkersVanish(t *testing.T) {
	in := "\\begin{itemize}\\item first thing \\item second thing\\end{itemize}"
	got := ToText(in)
	if strings.Contains(got, "begin") || strings.Contains(got, "itemize") {
		t.Errorf("environment markers survived: %q", got)
	}
	if !strings.Contains(got, "first thing") || !strings.Contains(got, "second thing") {
		t.Errorf("content lost: %q", got)
	}
}

func TestVerbatimPassthrough(t *testing.T) {
	in := "see \\begin{verbatim}raw \\emph{stuff}\\end{verbatim} done"
	got := ToText(in)
	if !strings.Contains(got, `raw \emph{stuff}`) {
		t.Errorf("verbatim content altered: %q", got)
	}
}

func TestDropCommands(t *testing.T) {
	in := `a theorem \cite{gardner09} with \label{thm:x} markers \ref{eq}`
	got := ToText(in)
	for _, frag := range []string{"gardner09", "thm:x", "cite", "label", "ref"} {
		if strings.Contains(got, frag) {
			t.Errorf("dropped command leaked %q: %q", frag, got)
		}
	}
}

func TestSectionsKeepTitleText(t *testing.T) {
	got := ToText(`\section{Planar graphs} body text`)
	if !strings.Contains(got, "Planar graphs") || !strings.Contains(got, "body text") {
		t.Errorf("got %q", got)
	}
	if strings.Contains(got, "section") {
		t.Errorf("command name leaked: %q", got)
	}
}

func TestComments(t *testing.T) {
	got := ToText("visible % invisible comment\nnext line")
	if strings.Contains(got, "invisible") {
		t.Errorf("comment survived: %q", got)
	}
	if !strings.Contains(got, "next line") {
		t.Errorf("text after comment lost: %q", got)
	}
	// Escaped percent is literal.
	if got := ToText(`fifty \% done`); !strings.Contains(got, "fifty % done") {
		t.Errorf("escaped %% mangled: %q", got)
	}
}

func TestLigaturesAndAccents(t *testing.T) {
	cases := map[string]string{
		`M\"obius strip`:             "Mobius strip",
		`Poincar\'e duality`:         "Poincare duality",
		`Weierstra\ss theorem`:       "Weierstrass theorem",
		"the --- dash and -- ranges": "the - dash and - ranges",
		"``quoted'' text":            `"quoted" text`,
		`Erd\H{o}s number`:           "Erdos number", // \H unknown → argument text kept
	}
	for in, want := range cases {
		if got := ToText(in); got != want {
			t.Errorf("ToText(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPMlinkescapetext(t *testing.T) {
	got := ToText(`do not link \PMlinkescapetext{even numbers} here`)
	if !strings.Contains(got, "`even numbers`") {
		t.Errorf("escape span missing: %q", got)
	}
	// Tokenizer skips the escaped span.
	toks := tokenizer.Tokenize(got)
	for _, tok := range toks {
		if tok.NormalForm(got) == "even" {
			t.Errorf("escaped text tokenized: %+v", tok)
		}
	}
}

func TestTildeAndSpacing(t *testing.T) {
	got := ToText(`Theorem~2 uses  \quad spacing`)
	if !strings.Contains(got, "Theorem 2") {
		t.Errorf("tilde not spaced: %q", got)
	}
	if strings.Contains(got, "  ") {
		t.Errorf("spaces not collapsed: %q", got)
	}
}

func TestUnknownCommandKeepsArgumentText(t *testing.T) {
	got := ToText(`\PMdefines{planar graph} rest`)
	if !strings.Contains(got, "planar graph") {
		t.Errorf("argument text lost: %q", got)
	}
}

func TestEndToEndEntry(t *testing.T) {
	entry := `\section{Plane graph}
A \emph{plane graph} is a \textbf{planar graph}~\cite{bondy} which is drawn
in the plane so that its edges $e \in E$ intersect % crossing comment
only at the vertices.
\begin{align} \chi = v - e + f \end{align}
See also the \PMlinkescapetext{even number} entry.`
	got := ToText(entry)
	for _, want := range []string{"plane graph", "planar graph", "drawn", "$e \\in E$"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
	for _, bad := range []string{"bondy", "crossing comment", `\emph`, `\textbf`, `\section`} {
		if strings.Contains(got, bad) {
			t.Errorf("leaked %q in %q", bad, got)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	for _, in := range []string{"", `\`, `\emph{unclosed`, "$unclosed", "{{{", "}}}", `\begin{align} never ends`} {
		// Must not panic and must return something.
		_ = ToText(in)
	}
}

func BenchmarkToText(b *testing.B) {
	entry := strings.Repeat(`A \emph{plane graph} is a \textbf{planar graph} drawn in the plane with $e \in E$ edges. `, 40)
	b.SetBytes(int64(len(entry)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ToText(entry)
	}
}
