package morph

import "strings"

// irregularPlurals maps irregular (and Latin/Greek) plural forms to their
// singulars. The table is weighted toward vocabulary that actually occurs
// in mathematical corpora such as PlanetMath.
var irregularPlurals = map[string]string{
	// Common English irregulars.
	"children": "child",
	"feet":     "foot",
	"geese":    "goose",
	"men":      "man",
	"mice":     "mouse",
	"people":   "person",
	"teeth":    "tooth",
	"women":    "woman",

	// Latin -ex/-ix → -ices.
	"apices":    "apex",
	"indices":   "index",
	"matrices":  "matrix",
	"vertices":  "vertex",
	"codices":   "codex",
	"simplices": "simplex",

	// Latin -is → -es.
	"analyses":    "analysis",
	"axes":        "axis",
	"bases":       "basis",
	"crises":      "crisis",
	"ellipses":    "ellipsis",
	"hypotheses":  "hypothesis",
	"parentheses": "parenthesis",
	"syntheses":   "synthesis",
	"theses":      "thesis",

	// Latin -us → -i.
	"calculi": "calculus",
	"foci":    "focus",
	"loci":    "locus",
	"moduli":  "modulus",
	"nuclei":  "nucleus",
	"radii":   "radius",
	"tori":    "torus",

	// Latin -um / Greek -on → -a.
	"addenda":   "addendum",
	"automata":  "automaton",
	"continua":  "continuum",
	"criteria":  "criterion",
	"curricula": "curriculum",
	"data":      "datum",
	"errata":    "erratum",
	"extrema":   "extremum",
	"infima":    "infimum",
	"maxima":    "maximum",
	"media":     "medium",
	"minima":    "minimum",
	"phenomena": "phenomenon",
	"polyhedra": "polyhedron",
	"quanta":    "quantum",
	"spectra":   "spectrum",
	"strata":    "stratum",
	"suprema":   "supremum",

	// Latin/Greek -a → -ae, -ata.
	"abscissae": "abscissa",
	"formulae":  "formula",
	"lacunae":   "lacuna",
	"lemmata":   "lemma",
	"schemata":  "schema",

	// -f/-fe → -ves.
	"halves":  "half",
	"leaves":  "leaf",
	"lives":   "life",
	"selves":  "self",
	"shelves": "shelf",
	"wolves":  "wolf",
}

// irregularSingulars is the inverse of irregularPlurals, used by Pluralize.
var irregularSingulars = func() map[string]string {
	m := make(map[string]string, len(irregularPlurals))
	for p, s := range irregularPlurals {
		m[s] = p
	}
	return m
}()

// invariantWords neither singularize nor pluralize: their plural equals
// their singular, or stripping a final "s" would corrupt them.
var invariantWords = map[string]bool{
	"series":      true,
	"species":     true,
	"means":       true,
	"modulo":      true,
	"calculus":    true, // guarded: ends in "us" but rule table handles via irregulars
	"analysis":    true,
	"basis":       true,
	"bias":        true,
	"canvas":      true,
	"chaos":       true,
	"class":       true, // handled by -sses rule for "classes"
	"cross":       true,
	"gauss":       true,
	"genus":       true,
	"iff":         true,
	"less":        true,
	"mathematics": true,
	"news":        true,
	"physics":     true,
	"plus":        true,
	"minus":       true,
	"modulus":     true,
	"radius":      true,
	"status":      true,
	"stokes":      true,
	"surplus":     true,
	"this":        true,
	"thus":        true,
	"torus":       true,
	"always":      true,
	"perhaps":     true,
	"versus":      true,
	"as":          true,
	"is":          true,
	"its":         true,
	"has":         true,
	"was":         true,
	"does":        true,
	"pythagoras":  true,
}

// suffixRule rewrites a trailing plural suffix to a singular one. guard, if
// non-nil, must approve the stem before the rule applies.
type suffixRule struct {
	plural   string
	singular string
	guard    func(stem string) bool
}

// suffixRules are ordered longest suffix first so that, e.g., "classes"
// matches the "sses" rule before the generic "s" rule could misfire.
var suffixRules = []suffixRule{
	{plural: "sses", singular: "ss"},                     // classes → class
	{plural: "ches", singular: "ch"},                     // branches → branch
	{plural: "shes", singular: "sh"},                     // meshes → mesh
	{plural: "xes", singular: "x"},                       // boxes → box, annexes → annex
	{plural: "zzes", singular: "zz"},                     // buzzes → buzz
	{plural: "ies", singular: "y", guard: longerThan(1)}, // identities → identity
	{plural: "ves", singular: "f", guard: fWord},         // halves handled above; leaves fallback
	{plural: "oes", singular: "o", guard: longerThan(2)}, // zeroes → zero
	{plural: "es", singular: "e", guard: esToE},          // planes → plane? handled by "s"; edges stay
	{plural: "s", singular: "", guard: plainS},           // groups → group
}

func longerThan(n int) func(string) bool {
	return func(stem string) bool { return len(stem) > n }
}

// fWord approves -ves → -f only for stems that plausibly came from an
// -f word not present in the irregular table.
func fWord(stem string) bool {
	switch stem {
	case "dwar", "roo", "belie", "proo": // dwarves, rooves (rare), believes? no
		return stem == "dwar" || stem == "roo"
	}
	return false
}

// esToE approves the "es"→"e" rewrite only when the stem ends in a letter
// combination that requires a silent e ("edg"+"es" → "edge"). Most -es
// plurals are handled either by the longer rules above or by the plain "s"
// rule ("planes" → "plane" via "s").
func esToE(stem string) bool {
	if len(stem) < 2 {
		return false
	}
	// Only rewrite "es" → "e" when stripping a bare "s" would leave a
	// consonant cluster that cannot end an English word ("edg", "curv",
	// "sequenc"); everything else is left to the plain "s" rule, which
	// already yields the right singular for words like "planes".
	switch {
	case strings.HasSuffix(stem, "dg"), strings.HasSuffix(stem, "v"),
		strings.HasSuffix(stem, "nc"), strings.HasSuffix(stem, "rc"),
		strings.HasSuffix(stem, "qu"):
		return true
	}
	return false
}

// plainS approves the generic strip-final-s rule. It refuses stems that
// would obviously be wrong: words ending in s/u (bus, genus), double-s, or
// too short to be a plural.
func plainS(stem string) bool {
	if len(stem) < 2 {
		return false
	}
	last := stem[len(stem)-1]
	switch last {
	case 's', 'u', 'i':
		return false
	}
	return true
}

// words is irregularPlurals and invariantWords folded into one table, the
// form singularizeOnce probes: one hash and, for most words, one byte load
// per word, and no runtime map access.
var words = newWordTable(irregularPlurals, invariantWords)

// wordEntry is one word of a wordTable: an irregular plural with its
// singular, or (singular empty) an invariant word.
type wordEntry struct {
	word     string
	singular string
}

// wordTable is a fixed open-addressed hash table with linear probing. Its
// slots hold one byte each, 1 + the index of a word in entries or 0 for a
// vacancy, and there are at least eight times as many slots as words: a
// word that is not in the table — nearly every word of a text — is most
// often turned away by one load from a kilobyte that stays in cache.
type wordTable struct {
	slots   []uint8
	entries []wordEntry
	mask    uint32
}

// newWordTable builds the table of irregular plurals and invariant words. A
// word in both keeps its singular: the irregular plurals are consulted first.
func newWordTable(irregular map[string]string, invariant map[string]bool) wordTable {
	keys := len(irregular) + len(invariant)
	if keys >= 255 {
		panic("morph: word table outgrew its one-byte slots")
	}
	size := 1
	for size < 8*keys {
		size *= 2
	}
	t := wordTable{slots: make([]uint8, size), mask: uint32(size - 1)}
	for w := range invariant {
		t.insert(wordEntry{word: w})
	}
	for w, s := range irregular {
		t.insert(wordEntry{word: w, singular: s})
	}
	return t
}

// insert adds e, replacing the entry of the same word.
func (t *wordTable) insert(e wordEntry) {
	if old := t.find(e.word); old != nil {
		*old = e
		return
	}
	i := wordHash(e.word) & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.entries = append(t.entries, e)
	t.slots[i] = uint8(len(t.entries))
}

// find returns the entry of word, or nil when the word is in neither table.
func (t *wordTable) find(word string) *wordEntry {
	for i := wordHash(word) & t.mask; t.slots[i] != 0; i = (i + 1) & t.mask {
		if e := &t.entries[t.slots[i]-1]; e.word == word {
			return e
		}
	}
	return nil
}

// wordHash hashes a word's length and its first, middle and last bytes,
// which tell the short English keys apart, through murmur3's finalizer: no
// loop over the word.
func wordHash(w string) uint32 {
	n := len(w)
	if n == 0 {
		return 0
	}
	h := uint32(w[0]) | uint32(w[n/2])<<8 | uint32(w[n-1])<<16 | uint32(n)<<24
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	return h ^ h>>16
}
