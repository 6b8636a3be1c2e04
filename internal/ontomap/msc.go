package ontomap

// Built-in mapping between the PlanetMath MSC (Mathematics Subject
// Classification) scheme and Wikipedia-style category names — the concrete
// ontology pair of the paper's multi-corpus scenario (§2.3: PlanetMath uses
// MSC, "Wikipedia uses its own category system") and the steering bridge of
// the cross-corpus link policy: an entry classified with Wikipedia
// categories can compete for links in an MSC-steered request (and vice
// versa) only after its classes are translated into the canonical scheme.
//
// The table covers the MSC top-level areas the evaluation corpora exercise.
// It is intentionally coarse — category systems are folksonomies, MSC is a
// curated tree — so rules map whole MSC areas (prefix rules like "05*") to
// one or a few categories, and categories back to the area roots. Deploys
// with richer curated mappings install their own Mapper over these.

// Scheme names used by the built-in mappers.
const (
	SchemeMSC               = "msc"
	SchemeWikipediaCategory = "wikipedia-category"
)

// mscAreas pairs MSC top-level area prefixes with Wikipedia category names.
// One area may carry several categories; the first category is the area's
// canonical name for the reverse direction.
var mscAreas = []struct {
	prefix     string
	categories []string
}{
	{"03", []string{"Mathematical logic", "Set theory"}},
	{"05", []string{"Combinatorics", "Graph theory"}},
	{"11", []string{"Number theory"}},
	{"12", []string{"Field theory"}},
	{"13", []string{"Commutative algebra"}},
	{"14", []string{"Algebraic geometry"}},
	{"15", []string{"Linear algebra", "Matrix theory"}},
	{"16", []string{"Ring theory"}},
	{"18", []string{"Category theory"}},
	{"20", []string{"Group theory"}},
	{"26", []string{"Real analysis"}},
	{"28", []string{"Measure theory"}},
	{"30", []string{"Complex analysis"}},
	{"34", []string{"Differential equations"}},
	{"46", []string{"Functional analysis"}},
	{"51", []string{"Geometry"}},
	{"54", []string{"Topology"}},
	{"55", []string{"Algebraic topology"}},
	{"60", []string{"Probability theory"}},
	{"62", []string{"Statistics"}},
	{"65", []string{"Numerical analysis"}},
	{"68", []string{"Computer science", "Theoretical computer science"}},
}

// NewMSCToWikipedia builds the MSC → Wikipedia-category mapper: every MSC
// class in an area (prefix rule) maps to the area's categories.
func NewMSCToWikipedia() *Mapper {
	m := NewMapper(SchemeMSC, SchemeWikipediaCategory)
	for _, a := range mscAreas {
		m.Add(a.prefix+"*", a.categories...)
	}
	return m
}

// NewWikipediaToMSC builds the Wikipedia-category → MSC mapper: each
// category maps to its MSC area root ("05" for Combinatorics, …), the
// coarsest class of the area. Steering then measures distance from the area
// root, which is exactly the granularity the categories carry.
func NewWikipediaToMSC() *Mapper {
	m := NewMapper(SchemeWikipediaCategory, SchemeMSC)
	for _, a := range mscAreas {
		for _, c := range a.categories {
			m.Add(c, a.prefix)
		}
	}
	return m
}
