package tokenizer

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"nnexus/internal/morph"
)

// The tokenizer as it stood before it became one pass over the bytes, kept
// as the reference FuzzTokenize and TestTokenizeMatchesReference hold
// TokenizeAppend and EscapeSpans to: a span slice built first, then a token
// loop that walks it, rune classes from package unicode, strings.TrimRight.
// Only the close-tag search differs from that code: it compares the original
// bytes, where the old one searched a lower-cased copy whose offsets are not
// the text's. scanDollar and tagName are the package's own, which neither
// that rewrite nor the closer memo (escapes) touched; referenceScanTeX and
// referenceScanHTML search for every closer afresh from every opener. Its
// tokens are a span and the normal form of the word in it, where the
// tokenizer's carry a vocabulary ID: checkTokenize compares the word the ID
// names, or the form it normalizes to when the vocabulary lacks it.

// referenceToken is one token of referenceTokenize.
type referenceToken struct {
	Start, End int
	Norm       string
}

func referenceTokenize(text string) []referenceToken {
	spans := referenceEscapeSpans(text)
	var tokens []referenceToken
	next := 0 // index into spans of the next escaped region
	i := 0
	for i < len(text) {
		// Skip past any escaped region that starts at or before i.
		for next < len(spans) && spans[next].End <= i {
			next++
		}
		if next < len(spans) && i >= spans[next].Start {
			i = spans[next].End
			next++
			continue
		}
		limit := len(text)
		if next < len(spans) {
			limit = spans[next].Start
		}
		r, size := rune(text[i]), 1
		if r >= 0x80 {
			r, size = utf8.DecodeRuneInString(text[i:])
		}
		if !referenceWordRune(r) {
			i += size
			continue
		}
		start := i
		for i < limit {
			r, size := rune(text[i]), 1
			if r >= 0x80 {
				r, size = utf8.DecodeRuneInString(text[i:])
			}
			if !referenceWordPart(r) {
				break
			}
			i += size
		}
		raw := strings.TrimRight(text[start:i], "-'’–")
		if raw == "" {
			continue
		}
		end := start + len(raw)
		tokens = append(tokens, referenceToken{
			Start: start,
			End:   end,
			Norm:  morph.Singularize(morph.StripPossessive(morph.FoldASCII(strings.ToLower(raw)))),
		})
	}
	return tokens
}

func referenceWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func referenceWordPart(r rune) bool {
	return referenceWordRune(r) || r == '\'' || r == '’' || r == '-' || r == '–'
}

func referenceEscapeSpans(text string) []Span {
	var spans []Span
	i := 0
	for i < len(text) {
		c := text[i]
		switch c {
		case '$':
			if i > 0 && text[i-1] == '\\' {
				i++
				continue
			}
			if end, ok := scanDollar(text, i); ok {
				spans = append(spans, Span{i, end})
				i = end
				continue
			}
			i++
		case '\\':
			if end, ok := referenceScanTeX(text, i); ok {
				spans = append(spans, Span{i, end})
				i = end
				continue
			}
			i++
		case '`':
			if end := strings.IndexByte(text[i+1:], '`'); end >= 0 {
				spans = append(spans, Span{i, i + 1 + end + 1})
				i = i + 1 + end + 1
				continue
			}
			i++
		case '<':
			if end, ok := referenceScanHTML(text, i); ok {
				spans = append(spans, Span{i, end})
				i = end
				continue
			}
			i++
		default:
			i++
		}
	}
	return spans
}

func referenceScanTeX(text string, i int) (end int, ok bool) {
	rest := text[i:]
	switch {
	case strings.HasPrefix(rest, `\(`):
		if j := strings.Index(rest, `\)`); j >= 0 {
			return i + j + 2, true
		}
	case strings.HasPrefix(rest, `\[`):
		if j := strings.Index(rest, `\]`); j >= 0 {
			return i + j + 2, true
		}
	case strings.HasPrefix(rest, `\begin{`):
		nameEnd := strings.IndexByte(rest, '}')
		if nameEnd < 0 {
			return 0, false
		}
		name := rest[len(`\begin{`):nameEnd]
		closer := `\end{` + name + `}`
		if j := strings.Index(rest, closer); j >= 0 {
			return i + j + len(closer), true
		}
	}
	return 0, false
}

var referenceEscapedElements = map[string]bool{
	"a": true, "code": true, "pre": true, "math": true,
	"script": true, "style": true,
}

func referenceScanHTML(text string, i int) (end int, ok bool) {
	gt := strings.IndexByte(text[i:], '>')
	if gt < 0 {
		return 0, false
	}
	tagEnd := i + gt + 1
	inner := text[i+1 : tagEnd-1]
	if inner == "" {
		return 0, false
	}
	if inner[0] == '/' || inner[0] == '!' || inner[0] == '?' ||
		strings.HasSuffix(inner, "/") {
		return tagEnd, true // close tag, comment/doctype, or self-closing
	}
	name := strings.ToLower(tagName(inner))
	if name == "" {
		return 0, false // "<" followed by non-tag text, e.g. "x < y"
	}
	if !referenceEscapedElements[name] {
		return tagEnd, true // tag itself escaped, body remains linkable
	}
	j := referenceIndexFoldASCII(text[tagEnd:], "</"+name)
	if j < 0 {
		return tagEnd, true // unclosed; escape just the open tag
	}
	closeGT := strings.IndexByte(text[tagEnd+j:], '>')
	if closeGT < 0 {
		return len(text), true
	}
	return tagEnd + j + closeGT + 1, true
}

// referenceIndexFoldASCII is strings.Index over s with its ASCII upper-case
// letters read as lower case, position by position; lower is lower-case.
func referenceIndexFoldASCII(s, lower string) int {
	for j := 0; j+len(lower) <= len(s); j++ {
		k := 0
		for k < len(lower) {
			c := s[j+k]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != lower[k] {
				break
			}
			k++
		}
		if k == len(lower) {
			return j
		}
	}
	return -1
}
