package render

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestApplyHTML(t *testing.T) {
	text := "a planar graph is a graph"
	out, err := Apply(text, []Anchor{
		{Start: 2, End: 14, URL: "http://pm/2", Title: "planar graph"},
		{Start: 20, End: 25, URL: "http://pm/5"},
	}, HTML)
	if err != nil {
		t.Fatal(err)
	}
	want := `a <a href="http://pm/2" title="planar graph">planar graph</a> is a <a href="http://pm/5">graph</a>`
	if out != want {
		t.Errorf("out = %q\nwant %q", out, want)
	}
}

func TestApplyMarkdown(t *testing.T) {
	text := "see planar graph here"
	out, err := Apply(text, []Anchor{{Start: 4, End: 16, URL: "u"}}, Markdown)
	if err != nil {
		t.Fatal(err)
	}
	if out != "see [planar graph](u) here" {
		t.Errorf("out = %q", out)
	}
}

func TestApplyUnorderedAnchors(t *testing.T) {
	text := "x y z"
	out, err := Apply(text, []Anchor{
		{Start: 4, End: 5, URL: "c"},
		{Start: 0, End: 1, URL: "a"},
	}, Markdown)
	if err != nil {
		t.Fatal(err)
	}
	if out != "[x](a) y [z](c)" {
		t.Errorf("out = %q", out)
	}
}

func TestApplyNoAnchors(t *testing.T) {
	out, err := Apply("unchanged", nil, HTML)
	if err != nil || out != "unchanged" {
		t.Errorf("out = %q, err = %v", out, err)
	}
}

func TestApplyRejectsBadAnchors(t *testing.T) {
	cases := [][]Anchor{
		{{Start: 0, End: 3, URL: "a"}, {Start: 2, End: 5, URL: "b"}}, // overlap
		{{Start: 3, End: 2, URL: "a"}},                               // inverted
		{{Start: 0, End: 99, URL: "a"}},                              // out of range
	}
	for i, anchors := range cases {
		if _, err := Apply("hello", anchors, HTML); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEscapeAttr(t *testing.T) {
	out, err := Apply("x", []Anchor{{Start: 0, End: 1, URL: `http://e/?a=1&b="<x>"`, Title: `a"b`}}, HTML)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, `="http://e/?a=1&b=`) && !strings.Contains(out, "&amp;") {
		t.Errorf("unescaped ampersand: %q", out)
	}
	if strings.Contains(out, `title="a"b"`) {
		t.Errorf("unescaped quote: %q", out)
	}
}

func TestApplyAdjacentAnchors(t *testing.T) {
	out, err := Apply("ab", []Anchor{
		{Start: 0, End: 1, URL: "1"},
		{Start: 1, End: 2, URL: "2"},
	}, Markdown)
	if err != nil {
		t.Fatal(err)
	}
	if out != "[a](1)[b](2)" {
		t.Errorf("out = %q", out)
	}
}

// referenceApply is Apply as it stood, verbatim, before it was rewritten to
// build its output in one exactly-sized buffer: a sorted copy on every call
// and a strings.Replacer per attribute. FuzzApplyEquivalence holds Apply to it.
func referenceApply(text string, anchors []Anchor, format Format) (string, error) {
	if len(anchors) == 0 {
		return text, nil
	}
	sorted := make([]Anchor, len(anchors))
	copy(sorted, anchors)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var b strings.Builder
	b.Grow(len(text) + len(sorted)*48)
	prev := 0
	for i, a := range sorted {
		if a.Start < prev || a.End > len(text) || a.End <= a.Start {
			return "", fmt.Errorf("render: anchor %d [%d,%d) invalid or overlapping", i, a.Start, a.End)
		}
		b.WriteString(text[prev:a.Start])
		source := text[a.Start:a.End]
		switch format {
		case Markdown:
			b.WriteString("[")
			b.WriteString(source)
			b.WriteString("](")
			b.WriteString(a.URL)
			b.WriteString(")")
		default:
			b.WriteString(`<a href="`)
			b.WriteString(referenceEscapeAttr(a.URL))
			if a.Title != "" {
				b.WriteString(`" title="`)
				b.WriteString(referenceEscapeAttr(a.Title))
			}
			b.WriteString(`">`)
			b.WriteString(source)
			b.WriteString(`</a>`)
		}
		prev = a.End
	}
	b.WriteString(text[prev:])
	return b.String(), nil
}

func referenceEscapeAttr(s string) string {
	r := strings.NewReplacer(`&`, "&amp;", `"`, "&quot;", `<`, "&lt;", `>`, "&gt;")
	return r.Replace(s)
}

// fuzzAnchors decodes spec into anchors over a text of n bytes, four bytes
// each: start and length (which may run past the text, overlap an earlier
// anchor, or be zero), and two picks from attribute values that hold every
// escaped byte, a non-ASCII rune and the empty title.
func fuzzAnchors(spec []byte, n int) []Anchor {
	values := []string{"", "http://e/?a=1&b=2", `say "x" <y>`, "Möbius’ strip", "&&&", "plain"}
	var anchors []Anchor
	for ; len(spec) >= 4; spec = spec[4:] {
		start := int(spec[0]) % (n + 2)
		anchors = append(anchors, Anchor{
			Start: start,
			End:   start + int(spec[1])%6,
			URL:   values[int(spec[2])%len(values)],
			Title: values[int(spec[3])%len(values)],
		})
	}
	return anchors
}

// FuzzApplyEquivalence holds Apply to referenceApply: for any text and any
// anchors — ordered, shuffled, overlapping, empty, out of range — in both
// formats, the same output and the same verdict on whether the anchors are
// valid (run with `go test -fuzz=FuzzApplyEquivalence`).
func FuzzApplyEquivalence(f *testing.F) {
	f.Add("a planar graph is a graph", []byte{2, 5, 1, 2, 20, 5, 3, 0})  // ordered
	f.Add("a planar graph is a graph", []byte{20, 5, 1, 2, 2, 5, 3, 0})  // shuffled
	f.Add("a planar graph is a graph", []byte{2, 5, 1, 2, 4, 5, 3, 0})   // overlapping
	f.Add("a planar graph is a graph", []byte{2, 0, 1, 2})               // empty
	f.Add("short", []byte{3, 5, 1, 2})                                   // out of range
	f.Add("Möbius & <b>co</b>", []byte{0, 4, 2, 3, 9, 1, 4, 4, 5, 2, 0}) // inside a rune
	f.Add("", []byte{0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, text string, spec []byte) {
		anchors := fuzzAnchors(spec, len(text))
		// Every anchor renders twice: escaped per call, and from the open
		// tag the engine stores beside its target.
		tagged := append([]Anchor(nil), anchors...)
		for i := range tagged {
			tagged[i].Tag = OpenTag(tagged[i].URL, tagged[i].Title)
		}
		for _, format := range []Format{HTML, Markdown} {
			want, wantErr := referenceApply(text, anchors, format)
			for k, in := range [][]Anchor{anchors, tagged} {
				given := append([]Anchor(nil), in...)
				got, err := Apply(text, in, format)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("format %d, tagged %v: Apply error %v, reference error %v", format, k == 1, err, wantErr)
				}
				if got != want {
					t.Fatalf("format %d, tagged %v:\nApply     %q\nreference %q", format, k == 1, got, want)
				}
				for i := range in {
					if in[i] != given[i] {
						t.Fatalf("Apply reordered its caller's anchors")
					}
				}
			}
		}
	})
}

// TestApplyAllocs gates the render stage at one allocation per call, its
// result: the buffer is sized exactly, escaped attribute bytes or a stored
// open tag included, so it never regrows, and ordered anchors are neither
// copied nor sorted.
func TestApplyAllocs(t *testing.T) {
	var text strings.Builder
	var anchors, tagged []Anchor
	for i := 0; i < 50; i++ {
		text.WriteString("some prose then ")
		a := Anchor{Start: text.Len(), End: text.Len() + 7, URL: `http://e/?op=getobj&id=1<"2">`, Title: `a "b" & c`}
		anchors = append(anchors, a)
		a.Tag = OpenTag(a.URL, a.Title)
		tagged = append(tagged, a)
		text.WriteString("concept and more. ")
	}
	for k, in := range [][]Anchor{anchors, tagged} {
		for _, format := range []Format{HTML, Markdown} {
			if n := testing.AllocsPerRun(100, func() {
				if _, err := Apply(text.String(), in, format); err != nil {
					t.Fatal(err)
				}
			}); n > 1 {
				t.Errorf("format %d, tagged %v: Apply of 50 ordered anchors allocates %v times, want 1", format, k == 1, n)
			}
		}
	}
}
