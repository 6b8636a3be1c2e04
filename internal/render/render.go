// Package render substitutes the winning link candidates back into the
// original entry text (paper §2.1: "The 'winning' candidate for each
// position is then substituted into the original text and the linked
// document is then returned").
package render

import (
	"fmt"
	"sort"
	"strings"
)

// Anchor is one hyperlink to place over a byte range of the original text.
type Anchor struct {
	Start int    // byte offset of the link source text
	End   int    // byte offset one past the link source text
	URL   string // link target
	Title string // optional title attribute (target entry's canonical name)
	// Tag is optional: OpenTag(URL, Title), built once where the target is
	// stored. HTML output copies it instead of escaping URL and Title on
	// every anchor; Markdown output does not read it.
	Tag string
}

// OpenTag returns the escaped HTML open tag of a link to url titled title:
// what Apply writes before an anchor's source text.
func OpenTag(url, title string) string {
	var b strings.Builder
	b.Grow(openTagLen(url, title))
	writeOpenTag(&b, url, title)
	return b.String()
}

// Format selects the output syntax.
type Format int

const (
	// HTML wraps sources in <a href="..."> tags (the deployed behaviour).
	HTML Format = iota
	// Markdown emits [text](url) links, for linking READMEs, lecture
	// notes, and blog sources kept in Markdown.
	Markdown
)

// Apply inserts the anchors into text. Anchors must lie within the text and
// must not overlap; they may arrive in any order. Invalid anchors are
// reported rather than silently dropped, since a misplaced anchor corrupts
// the entry.
//
// The output is built in one buffer sized exactly in a first pass over the
// anchors, so a call allocates its result and nothing else; only anchors
// that arrive out of order (the linker's never do) pay for a sorted copy.
func Apply(text string, anchors []Anchor, format Format) (string, error) {
	if len(anchors) == 0 {
		return text, nil
	}
	for i := 1; i < len(anchors); i++ {
		if anchors[i].Start < anchors[i-1].Start {
			sorted := make([]Anchor, len(anchors))
			copy(sorted, anchors)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
			anchors = sorted
			break
		}
	}
	size, prev := len(text), 0
	for i := range anchors {
		a := &anchors[i]
		if a.Start < prev || a.End > len(text) || a.End <= a.Start {
			return "", fmt.Errorf("render: anchor %d [%d,%d) invalid or overlapping", i, a.Start, a.End)
		}
		prev = a.End
		switch format {
		case Markdown:
			size += len("[](") + len(a.URL) + len(")")
		default:
			if a.Tag != "" {
				size += len(a.Tag) + len(`</a>`)
			} else {
				size += openTagLen(a.URL, a.Title) + len(`</a>`)
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	prev = 0
	for i := range anchors {
		a := &anchors[i]
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
			if a.Tag != "" {
				b.WriteString(a.Tag)
			} else {
				writeOpenTag(&b, a.URL, a.Title)
			}
			b.WriteString(source)
			b.WriteString(`</a>`)
		}
		prev = a.End
	}
	b.WriteString(text[prev:])
	return b.String(), nil
}

// openTagLen is the number of bytes writeOpenTag writes.
func openTagLen(url, title string) int {
	n := len(`<a href="`) + attrLen(url) + len(`">`)
	if title != "" {
		n += len(`" title="`) + attrLen(title)
	}
	return n
}

// writeOpenTag appends the escaped open tag of a link to url titled title.
func writeOpenTag(b *strings.Builder, url, title string) {
	b.WriteString(`<a href="`)
	writeAttr(b, url)
	if title != "" {
		b.WriteString(`" title="`)
		writeAttr(b, title)
	}
	b.WriteString(`">`)
}

// attrEntity holds, per byte, the entity that replaces it inside a
// double-quoted HTML attribute: empty for every byte but the four that would
// break out of the attribute.
var attrEntity = [256]string{'&': "&amp;", '"': "&quot;", '<': "&lt;", '>': "&gt;"}

// attrLen is the number of bytes writeAttr writes for s.
func attrLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if entity := attrEntity[s[i]]; entity != "" {
			n += len(entity) - 1
		}
	}
	return n
}

// writeAttr appends s to b, escaping the characters that would break out of
// a double-quoted HTML attribute.
func writeAttr(b *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if entity := attrEntity[s[i]]; entity != "" {
			b.WriteString(s[last:i])
			b.WriteString(entity)
			last = i + 1
		}
	}
	b.WriteString(s[last:])
}
