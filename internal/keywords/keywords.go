// Package keywords implements the automatic keyword extraction NNexus's
// authors list as ongoing work (paper §2.4/§5: "we are also exploring
// automatic keyword extraction techniques in order to extract those terms
// that should be or should not be linked in an automatic way").
//
// Two capabilities are provided:
//
//   - Keyword extraction: TF·IDF-scored candidate concept labels (1–3 word
//     phrases) from an entry body, for suggesting the metadata of new
//     entries.
//   - Overlink-suspect detection: concept labels whose document frequency
//     across the corpus is so high that they are almost certainly being
//     used as common language rather than as concept invocations — exactly
//     the labels that need a linking policy (the paper's "even" example).
//     This automates the manual policy-writing step of §2.4.
package keywords

import (
	"math"
	"sort"
	"strings"
	"sync"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// maxPhraseLen bounds extracted phrase length.
const maxPhraseLen = 3

// Keyword is one scored candidate concept label.
type Keyword struct {
	Label string  // normalized label
	Score float64 // TF·IDF score; higher is more distinctive
	Count int     // occurrences in the analysed document
}

// Extractor accumulates corpus statistics (document frequencies) and scores
// candidate keywords against them. All methods are safe for concurrent use.
type Extractor struct {
	mu   sync.RWMutex
	df   map[string]int // documents containing each phrase
	docs int
}

// NewExtractor returns an empty extractor.
func NewExtractor() *Extractor {
	return &Extractor{df: make(map[string]int)}
}

// AddDocument folds a corpus document into the document-frequency model.
func (x *Extractor) AddDocument(text string) {
	seen := make(map[string]struct{})
	phrases(text, func(p string) {
		seen[p] = struct{}{}
	})
	x.mu.Lock()
	x.docs++
	for p := range seen {
		x.df[p]++
	}
	x.mu.Unlock()
}

// Docs returns the number of documents folded in.
func (x *Extractor) Docs() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.docs
}

// DocFrequency returns how many corpus documents contain the label.
func (x *Extractor) DocFrequency(label string) int {
	norm := morph.NormalizeLabel(label)
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.df[norm]
}

// Keywords extracts up to max scored candidate labels from a document.
// Phrases seen in no other corpus document score highest per occurrence;
// stopword-only phrases are skipped.
func (x *Extractor) Keywords(text string, max int) []Keyword {
	counts := make(map[string]int)
	phrases(text, func(p string) {
		counts[p]++
	})
	x.mu.RLock()
	docs := x.docs
	if docs < 1 {
		docs = 1
	}
	out := make([]Keyword, 0, len(counts))
	for p, tf := range counts {
		df := x.df[p]
		// Standard smoothed IDF; a phrase in every document scores ~0.
		idf := math.Log(float64(docs+1) / float64(df+1))
		score := float64(tf) * idf * phraseLengthBoost(p)
		if score <= 0 {
			continue
		}
		out = append(out, Keyword{Label: p, Score: score, Count: tf})
	}
	x.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Label < out[j].Label
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// OverlinkSuspects returns, from the given concept labels, those appearing
// in at least the given fraction of corpus documents — far too common to be
// deliberate concept invocations every time. These are the candidates for
// linking policies.
func (x *Extractor) OverlinkSuspects(labels []string, minFraction float64) []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if x.docs == 0 {
		return nil
	}
	var out []string
	for _, label := range labels {
		norm := morph.NormalizeLabel(label)
		frac := float64(x.df[norm]) / float64(x.docs)
		if frac >= minFraction {
			out = append(out, norm)
		}
	}
	sort.Strings(out)
	return out
}

// phraseLengthBoost mildly prefers multi-word labels, which are far more
// likely to be real concept labels than lone words.
func phraseLengthBoost(p string) float64 {
	switch strings.Count(p, " ") {
	case 0:
		return 1
	case 1:
		return 1.6
	default:
		return 2.0
	}
}

// phrases calls fn for every candidate phrase (1..maxPhraseLen consecutive
// non-stopword tokens) of the text, normalized. A phrase may neither start
// nor end with a stopword.
func phrases(text string, fn func(string)) {
	toks := tokenizer.Tokenize(text)
	norms := make([]string, len(toks))
	for i, tok := range toks {
		norms[i] = tok.NormalForm(text)
	}
	var b strings.Builder
	for i := range norms {
		if stopwords[norms[i]] {
			continue
		}
		b.Reset()
		b.WriteString(norms[i])
		fn(b.String())
		for n := 1; n < maxPhraseLen && i+n < len(norms); n++ {
			if stopwords[norms[i+n]] {
				break
			}
			b.WriteByte(' ')
			b.WriteString(norms[i+n])
			fn(b.String())
		}
	}
}

// stopwords are never keyword constituents.
var stopwords = func() map[string]bool {
	words := []string{
		"a", "about", "above", "after", "again", "all", "also", "an", "and",
		"any", "are", "as", "at", "be", "because", "been", "before", "being",
		"below", "between", "both", "but", "by", "can", "cannot", "could",
		"did", "do", "does", "doing", "down", "during", "each", "few", "for",
		"from", "further", "had", "has", "have", "having", "he", "her",
		"here", "hers", "him", "his", "how", "i", "if", "in", "into", "is",
		"it", "its", "itself", "just", "let", "may", "me", "might", "more",
		"most", "must", "my", "no", "nor", "not", "now", "of", "off", "on",
		"once", "one", "only", "or", "other", "our", "out", "over", "own",
		"same", "shall", "she", "should", "since", "so", "some", "such",
		"than", "that", "the", "their", "them", "then", "there", "these",
		"they", "this", "those", "through", "thus", "to", "too", "under",
		"until", "up", "upon", "us", "very", "was", "we", "were", "what",
		"when", "where", "which", "while", "who", "whom", "why", "will",
		"with", "would", "you", "your",
	}
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[morph.Normalize(w)] = true
	}
	return m
}()
