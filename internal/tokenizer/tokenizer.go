// Package tokenizer splits entry text into word tokens for concept-map
// scanning, while escaping the unlinkable portions of the text
// (paper §2.1: "NNexus starts link source identification by pulling out
// unlinkable portions of text that need to be escaped (i.e., equations) and
// replaces them by special tokens").
//
// Escaped regions — TeX math, code spans, HTML tags, and the bodies of
// already-linked anchors — produce no tokens, so the linker can neither link
// inside a formula nor re-link an existing hyperlink. Every token carries
// the byte offsets of its raw occurrence so the renderer can substitute
// hyperlinks back into the original text without disturbing anything else.
package tokenizer

import (
	"math/bits"
	"strings"
	"unicode/utf8"

	"nnexus/internal/morph"
)

// Token is one linkable word occurrence in the entry text: its span and the
// vocabulary's ID of its normalized word. The text is the caller's; a token
// does not copy it.
type Token struct {
	Start int // byte offset of the word's first byte in the input
	End   int // byte offset one past the word's last byte
	// Word is the vocabulary's ID of the word's normalized form, 0 when the
	// vocabulary did not hold that form when the text was tokenized: then
	// no concept label held it either, since a label's words enter the
	// vocabulary before the label is published.
	Word int32
}

// NormalForm returns the token's normalized word: the vocabulary's word for
// its ID, or, for a word the vocabulary does not hold, the form normalized
// from text, the input it was tokenized from.
func (t Token) NormalForm(text string) string {
	if t.Word != 0 {
		return morph.Word(t.Word)
	}
	return morph.Normalize(text[t.Start:t.End])
}

// Tokenize scans text and returns its linkable word tokens in order of
// appearance. Unlinkable regions (see escapes) yield no tokens.
func Tokenize(text string) []Token {
	return TokenizeAppend(nil, text)
}

// TokenizeAppend is Tokenize appending into dst (which may be nil or a
// recycled buffer with spare capacity), so high-throughput callers can
// reuse one token buffer across requests instead of allocating per call.
//
// It is one pass over the bytes: an escape opener is recognised where it
// stands and its region skipped, so no span list is built. A token can
// never run into an escaped region, because no opener is a word character.
// Words are split by morph's rule, the one labels are split by. A surface
// form the vocabulary holds takes its Word from one probe; any other is
// normalized and its word looked up, and nothing is added to the
// vocabulary. The vocabulary is read as it stood when the call began.
func TokenizeAppend(dst []Token, text string) []Token {
	return tokenize(dst, text, false)
}

// TokenizeInternAppend is TokenizeAppend for a stored body, on the write
// path: every surface form the vocabulary lacks is interned (morph.Intern),
// so a later read of the same body resolves each of its words by one probe.
func TokenizeInternAppend(dst []Token, text string) []Token {
	return tokenize(dst, text, true)
}

func tokenize(dst []Token, text string, intern bool) []Token {
	esc := escapes{text: text}
	vocab := morph.Current()
	for i := 0; i < len(text); {
		c := text[i]
		if class := byteClass[c]; class != classWord {
			if c < utf8.RuneSelf {
				if class == classOpener {
					if end, ok := esc.end(i); ok {
						i = end
						continue
					}
				}
				i++
				continue
			}
			if r, size := utf8.DecodeRuneInString(text[i:]); !morph.IsWordRune(r) {
				i += size
				continue
			}
		}
		// Most words are ASCII letters and digits up to a byte that ends
		// them, read eight at a time while eight remain and then one at a
		// time; at a joiner or past ASCII, morph.WordEnd decides.
		start, n := i, 8
		for i++; n == 8 && i+8 <= len(text); i += n {
			n = wordBytes(load8(text[i:]))
		}
		for ; n == 8 && i < len(text) && byteClass[text[i]] == classWord; i++ {
		}
		if i < len(text) && byteClass[text[i]] == classJoin {
			i = morph.WordEnd(text, start)
		}
		// A form the vocabulary lacks is interned on the write path, and
		// normalized and its word looked up on the read path.
		word := vocab.FormID(text[start:i])
		switch {
		case word != 0:
		case intern:
			_, word = morph.Intern(text[start:i])
		default:
			word = vocab.WordID(morph.Normalize(text[start:i]))
		}
		dst = append(dst, Token{Start: start, End: i, Word: word})
	}
	return dst
}

// Byte classes: what starts a token, what may continue one (a joiner, or a
// byte past ASCII), and what may open an escaped region. Runes past ASCII go
// through morph.IsWordRune.
const (
	classWord   = 1 + iota // starts and continues a token
	classOpener            // $ \ ` <: see escapes.end
	classJoin              // morph.IsJoiner, or past ASCII: see morph.WordEnd
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch r := rune(c); {
		case c >= utf8.RuneSelf || morph.IsJoiner(r):
			t[c] = classJoin
		case morph.IsWordRune(r):
			t[c] = classWord
		}
	}
	t['$'], t['\\'], t['`'], t['<'] = classOpener, classOpener, classOpener, classOpener
	return t
}()

// wordBytes returns how many of the eight bytes of x, the first lowest, are
// classWord bytes before any other: it tests all eight at once for an ASCII
// letter or digit. Each byte's high bit is cleared before the range tests, so
// no sum carries into the next byte, and a byte past ASCII is no word byte.
func wordBytes(x uint64) int {
	const (
		ones = 0x0101010101010101
		high = 0x80 * ones
	)
	v := x &^ high
	l := v | 0x20*ones                                          // 'A'-'Z' read as 'a'-'z'
	letter := (l + (0x80-'a')*ones) &^ (l + (0x7f-'z')*ones)    // 'a' <= l <= 'z'
	digit := (v + (0x80-'0')*ones) &^ (v + (0x7f-'9')*ones)     // '0' <= v <= '9'
	return bits.TrailingZeros64(^((letter|digit)&^x)&high) >> 3 // 8 when all are
}

// load8 returns the first eight bytes of s as one word, the first lowest, in
// one load. It reads them into a local array rather than through
// encoding/binary, whose eight reads of a slice the race detector checks one
// by one: TestTokenizeLinearInUnclosedOpeners times this loop under -race.
func load8(s string) uint64 {
	b := [8]byte([]byte(s[:8]))
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// escapes finds the escaped regions of one text, walked front to back; it is
// the one place that knows the openers. The regions are:
//
//   - TeX display and inline math: $$...$$, $...$, \[...\], \(...\)
//   - TeX environments: \begin{name}...\end{name}
//   - Markdown code spans: `...`
//   - HTML tags themselves: <tag attr="...">
//   - The full bodies of <a>, <code>, <pre>, <math>, <script>, <style>
//     elements (an existing link must never be re-linked).
//
// An opener whose closer is missing is no escape, and the next such opener
// would search the same rest of the text again, so escapes remembers what the
// searches found: a closer absent from text[i:] is absent from every later
// suffix, and one found ahead of the walk is still the nearest when asked for
// again.
type escapes struct {
	text string
	// Closers the walk can find without consuming the text up to them.
	gt, brace, parenClose, bracketClose after
	noCloseTag                          [len(escapedElements)]bool // no "</name" ahead
	lastEnd                             map[string]int             // see hasEnd
}

// after caches where one closer next occurs, for searches whose starting
// offsets only rise: 1 + its first offset at or after the last start, or
// len(text)+1 when there is none; 0 before the first search.
type after int

// index is from + strings.Index(text[from:], closer), or -1, and searches no
// byte twice.
func (a *after) index(text string, from int, closer string) int {
	if int(*a) <= from {
		*a = after(len(text) + 1)
		if j := strings.Index(text[from:], closer); j >= 0 {
			*a = after(from + j + 1)
		}
	}
	if int(*a) > len(text) {
		return -1
	}
	return int(*a) - 1
}

// end reports whether an escaped region opens at text[i] and where it ends.
func (e *escapes) end(i int) (end int, ok bool) {
	switch e.text[i] {
	case '$':
		if i > 0 && e.text[i-1] == '\\' {
			return 0, false
		}
		return scanDollar(e.text, i)
	case '\\':
		return e.tex(i)
	case '`':
		if j := strings.IndexByte(e.text[i+1:], '`'); j >= 0 {
			return i + 1 + j + 1, true
		}
	case '<':
		return e.html(i)
	}
	return 0, false
}

// scanDollar handles $...$ and $$...$$ starting at i (text[i] == '$').
func scanDollar(text string, i int) (end int, ok bool) {
	if strings.HasPrefix(text[i:], "$$") {
		if j := strings.Index(text[i+2:], "$$"); j >= 0 {
			return i + 2 + j + 2, true
		}
		return 0, false
	}
	// Inline math: find an unescaped closing $ before a blank line.
	for j := i + 1; j < len(text); j++ {
		switch text[j] {
		case '$':
			if text[j-1] == '\\' {
				continue
			}
			return j + 1, true
		case '\n':
			if j+1 < len(text) && text[j+1] == '\n' {
				return 0, false // blank line: not inline math
			}
		}
	}
	return 0, false
}

// tex handles \( \[ and \begin{...} starting at i (text[i] == '\\').
func (e *escapes) tex(i int) (end int, ok bool) {
	text := e.text
	rest := text[i:]
	switch {
	case strings.HasPrefix(rest, `\(`):
		if j := e.parenClose.index(text, i, `\)`); j >= 0 {
			return j + 2, true
		}
	case strings.HasPrefix(rest, `\[`):
		if j := e.bracketClose.index(text, i, `\]`); j >= 0 {
			return j + 2, true
		}
	case strings.HasPrefix(rest, `\begin{`):
		nameEnd := e.brace.index(text, i, "}")
		if nameEnd < 0 {
			return 0, false
		}
		// The name holds no '}', so its closer cannot start before it ends.
		if name := text[i+len(`\begin{`) : nameEnd]; e.hasEnd(name, nameEnd) {
			closer := `\end{` + name + `}`
			if j := strings.Index(text[nameEnd:], closer); j >= 0 {
				return nameEnd + j + len(closer), true
			}
		}
	}
	return 0, false
}

// hasEnd reports whether `\end{name}` may start at or after from; exactly, for
// a name without a backslash: one pass over the text, on first need, notes where
// the last `\end{name}` of each such name starts, so a missing closer costs a
// map probe however many distinct names miss theirs. Those names lie apart in
// the text, which keeps the hashing linear; one with a backslash — nested
// openers make them as long as the text — is not noted and always searched for.
func (e *escapes) hasEnd(name string, from int) bool {
	if strings.IndexByte(name, '\\') >= 0 {
		return true
	}
	if e.lastEnd == nil {
		e.lastEnd = make(map[string]int)
		at := 0 // where part starts
		for k, part := range strings.Split(e.text, `\end{`) {
			// No '}' before the next `\end{`: a name with a backslash, if any.
			noted, _, ok := strings.Cut(part, "}")
			if k > 0 && ok && strings.IndexByte(noted, '\\') < 0 {
				e.lastEnd[noted] = at - len(`\end{`) + 1
			}
			at += len(part) + len(`\end{`)
		}
	}
	return e.lastEnd[name] > from // 1 + the closer's offset; 0: there is none
}

// escapedElements are HTML elements whose entire body is unlinkable.
var escapedElements = [...]string{"a", "code", "pre", "math", "script", "style"}

// html handles an HTML tag starting at i (text[i] == '<'). For elements in
// escapedElements the span extends through the matching close tag.
func (e *escapes) html(i int) (end int, ok bool) {
	text := e.text
	gt := e.gt.index(text, i, ">")
	if gt < 0 {
		return 0, false
	}
	tagEnd := gt + 1
	inner := text[i+1 : gt]
	if inner == "" {
		return 0, false
	}
	if inner[0] == '/' || inner[0] == '!' || inner[0] == '?' ||
		strings.HasSuffix(inner, "/") {
		return tagEnd, true // close tag, comment/doctype, or self-closing
	}
	name := tagName(inner)
	if name == "" {
		return 0, false // "<" followed by non-tag text, e.g. "x < y"
	}
	for k, el := range escapedElements {
		if !equalFoldASCII(name, el) {
			continue
		}
		if e.noCloseTag[k] {
			return tagEnd, true
		}
		j := indexCloseTag(text[tagEnd:], el)
		if j < 0 {
			e.noCloseTag[k] = true
			return tagEnd, true // unclosed; escape just the open tag
		}
		closeGT := e.gt.index(text, tagEnd+j, ">")
		if closeGT < 0 {
			return len(text), true
		}
		return closeGT + 1, true
	}
	return tagEnd, true // tag itself escaped, body remains linkable
}

// indexCloseTag returns the offset in s of the first "</name", or -1. It
// compares the original bytes: lower-casing s first would move the offsets
// wherever a letter's two cases differ in length, and copy the rest of the
// document once per escaped element.
func indexCloseTag(s, name string) int {
	for off := 0; ; {
		j := strings.Index(s[off:], "</")
		if j < 0 {
			return -1
		}
		tag := off + j
		off = tag + len("</")
		if equalFoldASCII(s[off:min(off+len(name), len(s))], name) {
			return tag
		}
	}
}

// equalFoldASCII reports whether s equals lower, a string of lower-case
// ASCII letters, when only ASCII letters fold.
func equalFoldASCII(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i]|0x20 != lower[i] {
			return false
		}
	}
	return true
}

func tagName(inner string) string {
	for i := 0; i < len(inner); i++ {
		c := inner[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			return inner[:i]
		}
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return ""
		}
	}
	return inner
}
