// Package morph implements the morphological transformations NNexus applies
// to concept labels and entry tokens before they are checked into or looked
// up in the concept map (paper §2.2).
//
// Three invariances are provided:
//
//  1. Pluralization: "groups" and "group" normalize to the same key, as do
//     irregular and Latin/Greek mathematical plurals ("matrices"→"matrix",
//     "lemmata"→"lemma", "radii"→"radius").
//  2. Possessiveness: "Euler's" → "euler", "functions'" → "function".
//  3. International characters: tokens are canonicalized to a lowercase
//     ASCII-folded encoding ("Möbius" → "mobius", "Erdős" → "erdos") so the
//     same concept is found however the author typed it.
//
// All functions are pure and safe for concurrent use.
package morph

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize canonicalizes a single word token: it lowercases, folds
// international characters, strips possessive suffixes, and singularizes.
// This is the transformation applied both when a concept label is checked
// into the concept map and when entry text is scanned against it, so that
// the two sides always meet on the same key.
//
// Lowercasing comes first: the fold table lists no upper-case form for some
// code points whose lower-case form it does fold ("ẞ" U+1E9E → "ß", the
// ANGSTROM SIGN U+212B → "å"), and folding first would leave those for a
// second pass to change — a label and its invocation folding differently.
//
// Normalize(t) equals Singularize(StripPossessive(FoldASCII(strings.ToLower(t))))
// for every t where that does not end in a joiner; where it does ("x-'s",
// "x-s"), Normalize trims the joiners and normalizes what is left, so that a
// normalized label is its own normal form (NormalizeLabel). A token that is
// already lower-case ASCII with no apostrophe or hyphen — most of a
// mathematical text — passes the first three steps unchanged and cannot end
// in a joiner, so it goes straight to Singularize, which returns a word that
// cannot be a plural as the substring it was given: no allocation.
func Normalize(token string) string {
	for i := 0; i < len(token); i++ {
		if c := token[i]; c >= utf8.RuneSelf || c == '\'' || c == '-' || c >= 'A' && c <= 'Z' {
			t := Singularize(StripPossessive(FoldASCII(strings.ToLower(token))))
			if trimmed := strings.TrimRight(t, "-'"); trimmed != t {
				return Normalize(trimmed)
			}
			return t
		}
	}
	return Singularize(token)
}

// NormalizeLabel canonicalizes a multi-word concept label: it splits the
// label into words by the rule the tokenizer splits entry text by (IsWordRune,
// WordEnd), normalizes every word and joins them with single spaces, so that
// "Hahn–Banach theorem" and "group (algebra)" meet the tokens of their own
// text. Words that normalize to nothing are dropped, so the result never
// contains an empty word.
func NormalizeLabel(label string) string {
	var b strings.Builder
	for i := 0; i < len(label); {
		r, size := rune(label[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(label[i:])
		}
		if !IsWordRune(r) {
			i += size
			continue
		}
		end := WordEnd(label, i)
		if n := Normalize(label[i:end]); n != "" {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(n)
		}
		i = end
	}
	return b.String()
}

// IsWordRune reports whether r starts a word: a letter or a digit.
func IsWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// IsJoiner reports whether r is one of the joiners ', ’, - and –, which
// continue a word but neither start nor end one. The en dash joins because
// it folds to a hyphen and is how eponyms are typeset: "Hahn–Banach" is one
// word, as "Hahn-Banach" is. The em dash, which folds to a hyphen too, is
// left to split: prose sets it between words without spaces.
func IsJoiner(r rune) bool {
	return r == '\'' || r == '’' || r == '-' || r == '–'
}

// wordPart marks the ASCII bytes that continue a word.
var wordPart = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = IsWordRune(rune(c)) || IsJoiner(rune(c))
	}
	return t
}()

// WordEnd returns where the word that starts at s[start] ends. A word runs
// through letters, digits and joiners; joiners at its end belong to the
// prose, not the word ("rock-'n'-roll--" is "rock-'n'-roll").
func WordEnd(s string, start int) int {
	i := start
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !wordPart[c] {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if !IsWordRune(r) && !IsJoiner(r) {
			break
		}
		i += size
	}
	// The run started at a word rune, so trimming stops there.
	for {
		r, size := utf8.DecodeLastRuneInString(s[start:i])
		if !IsJoiner(r) {
			return i
		}
		i -= size
	}
}

// StripPossessive removes the English possessive suffix from a token:
// "euler's" → "euler", "stokes'" → "stokes". Both the ASCII apostrophe and
// the Unicode right single quotation mark (U+2019) are recognized.
func StripPossessive(token string) string {
	t := strings.ReplaceAll(token, "’", "'")
	// Iterate to a fixpoint so normalization stays idempotent even on
	// degenerate quote runs like "'s'" (found by fuzzing).
	for {
		next := strings.TrimRight(t, "'")
		if strings.HasSuffix(next, "'s") {
			next = next[:len(next)-2]
		}
		if next == t {
			return t
		}
		t = next
	}
}

// Singularize maps an English plural word to its singular form. Words that
// are already singular are returned unchanged. The rules cover regular
// English inflection plus the irregular and Latin/Greek plurals that are
// common in mathematical writing. Input is expected to be lowercase.
// Degenerate double plurals ("mices") resolve to a fixpoint ("mouse"), so
// Singularize is idempotent.
func Singularize(word string) string {
	for i := 0; i < 3; i++ {
		next := singularizeOnce(word)
		if next == word {
			return word
		}
		word = next
	}
	return word
}

func singularizeOnce(word string) string {
	if len(word) < 2 {
		return word
	}
	w := words.find(word)
	if w != nil && w.singular != "" {
		return w.singular
	}
	// Every suffix rule's plural ends in "s".
	if word[len(word)-1] != 's' || w != nil {
		return word
	}
	// Suffix rules are tried longest-first; the first applicable rule wins.
	for _, r := range suffixRules {
		if len(word) > len(r.plural) && strings.HasSuffix(word, r.plural) {
			stem := word[:len(word)-len(r.plural)]
			if r.guard != nil && !r.guard(stem) {
				continue
			}
			return stem + r.singular
		}
	}
	return word
}

// Pluralize maps a singular English word to a plausible plural form. It is
// the approximate inverse of Singularize and exists mainly so the synthetic
// workload generator can emit realistic inflected invocations; it applies
// the same irregular table in reverse.
func Pluralize(word string) string {
	if len(word) == 0 {
		return word
	}
	if p, ok := irregularSingulars[word]; ok {
		return p
	}
	if invariantWords[word] {
		return word
	}
	switch {
	case strings.HasSuffix(word, "is"):
		return word[:len(word)-2] + "es" // basis → bases
	case strings.HasSuffix(word, "us") && len(word) > 3:
		return word[:len(word)-2] + "i" // radius → radii
	case strings.HasSuffix(word, "s"), strings.HasSuffix(word, "x"),
		strings.HasSuffix(word, "z"), strings.HasSuffix(word, "ch"),
		strings.HasSuffix(word, "sh"):
		return word + "es"
	case strings.HasSuffix(word, "y") && len(word) > 1 && !isVowel(rune(word[len(word)-2])):
		return word[:len(word)-1] + "ies"
	default:
		return word + "s"
	}
}

func isVowel(r rune) bool {
	switch r {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// FoldASCII maps accented Latin characters to their closest ASCII
// equivalents ("é"→"e", "ß"→"ss", "Ø"→"O") and drops combining marks.
// Characters with no mapping pass through unchanged; pure-ASCII strings are
// returned without allocation.
func FoldASCII(s string) string {
	ascii := true
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if r < 0x80 {
			b.WriteRune(r)
			continue
		}
		if m, ok := asciiFold[r]; ok {
			b.WriteString(m)
			continue
		}
		if unicode.Is(unicode.Mn, r) {
			continue // drop combining marks
		}
		b.WriteRune(r)
	}
	return b.String()
}
