package invindex

import (
	"sort"
	"strings"
	"sync"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// refIndex is the invalidation index as it stood before it became a trie
// over interned words: every key a joined string, postings a set per key,
// and each entry's keys repeated in docKeys. FuzzIndexEquivalence and
// TestIndexMatchesReference hold Index to it answer for answer, the two
// drifts included (Remove takes no count back; a tombstone is forever).
type refIndex struct {
	mu           sync.RWMutex
	postings     map[string]map[int64]struct{} // key (word or phrase) → object set
	counts       map[string]int                // total occurrences per key (across all adds)
	docKeys      map[int64][]string            // keys contributed by each object
	tombstones   map[string]struct{}           // compacted keys, never re-admitted
	maxPhraseLen int
	adds         int // AddTokens calls since construction
	// auto-compaction: every autoEvery adds, phrases rarer than
	// autoBelow are dropped (0 disables).
	autoEvery int
	autoBelow int
}

// newRefIndex takes what the options set: the phrase bound, and the
// auto-compaction period and threshold (0, 0 for none).
func newRefIndex(maxPhraseLen, autoEvery, autoBelow int) *refIndex {
	return &refIndex{
		postings:     make(map[string]map[int64]struct{}),
		counts:       make(map[string]int),
		docKeys:      make(map[int64][]string),
		tombstones:   make(map[string]struct{}),
		maxPhraseLen: maxPhraseLen,
		autoEvery:    autoEvery,
		autoBelow:    autoBelow,
	}
}

// AddText tokenizes the entry text and indexes the object under every word
// and every phrase up to the configured maximum length. Re-adding an object
// replaces its previous contribution.
func (ix *refIndex) AddText(object int64, text string) {
	toks := tokenizer.Tokenize(text)
	norms := make([]string, len(toks))
	for i, t := range toks {
		norms[i] = t.NormalForm(text)
	}
	ix.AddTokens(object, norms)
}

// AddTokens indexes the object under the given normalized token sequence.
func (ix *refIndex) AddTokens(object int64, norms []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docKeys[object]; ok {
		ix.removeLocked(object)
	}
	seen := make(map[string]struct{})
	var keys []string
	for i := range norms {
		limit := ix.maxPhraseLen
		if rest := len(norms) - i; rest < limit {
			limit = rest
		}
		for n := 1; n <= limit; n++ {
			key := strings.Join(norms[i:i+n], " ")
			ix.counts[key]++
			if _, dead := ix.tombstones[key]; dead {
				continue
			}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			set, ok := ix.postings[key]
			if !ok {
				set = make(map[int64]struct{})
				ix.postings[key] = set
			}
			set[object] = struct{}{}
			keys = append(keys, key)
		}
	}
	ix.docKeys[object] = keys
	ix.adds++
	if ix.autoEvery > 0 && ix.adds%ix.autoEvery == 0 {
		ix.compactLocked(ix.autoBelow)
	}
}

// Remove deletes an object's contribution from the index.
func (ix *refIndex) Remove(object int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(object)
}

func (ix *refIndex) removeLocked(object int64) {
	for _, key := range ix.docKeys[object] {
		set, ok := ix.postings[key]
		if !ok {
			continue
		}
		delete(set, object)
		if len(set) == 0 {
			delete(ix.postings, key)
		}
	}
	delete(ix.docKeys, object)
}

// Lookup returns the IDs of the objects that must be invalidated when the
// given concept label is added to (or changed in) the collection: the
// postings of the longest indexed prefix of the label. The result is a
// superset of the objects that actually invoke the label, and never misses
// one (prefix property). A label whose first word has never been seen
// invalidates nothing.
func (ix *refIndex) Lookup(label string) []int64 {
	words := strings.Fields(morph.NormalizeLabel(label))
	if len(words) == 0 {
		return nil
	}
	if len(words) > ix.maxPhraseLen {
		words = words[:ix.maxPhraseLen]
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for n := len(words); n >= 1; n-- {
		key := strings.Join(words[:n], " ")
		if set, ok := ix.postings[key]; ok {
			return refSortedIDs(set)
		}
	}
	return nil
}

// LookupWordUnion is the non-adaptive baseline used for the ablation in the
// evaluation: it simulates a plain word-based inverted index by returning
// the union of the postings of every single word of the label — the larger
// invalidation set the paper's Fig 6 example warns about.
func (ix *refIndex) LookupWordUnion(label string) []int64 {
	words := strings.Fields(morph.NormalizeLabel(label))
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	union := make(map[int64]struct{})
	for _, w := range words {
		for id := range ix.postings[w] {
			union[id] = struct{}{}
		}
	}
	if len(union) == 0 {
		return nil
	}
	return refSortedIDs(union)
}

// Compact drops every phrase key (length ≥ 2) whose total occurrence count
// is below minCount, tombstoning it so it is never partially re-admitted.
// Single-word keys are always kept, preserving the lookup fallback.
// It returns the number of keys removed.
func (ix *refIndex) Compact(minCount int) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.compactLocked(minCount)
}

func (ix *refIndex) compactLocked(minCount int) int {
	removed := 0
	for key := range ix.postings {
		if !strings.Contains(key, " ") {
			continue
		}
		if ix.counts[key] >= minCount {
			continue
		}
		delete(ix.postings, key)
		ix.tombstones[key] = struct{}{}
		removed++
	}
	if removed > 0 {
		// Drop dead keys from per-document lists so Remove stays cheap.
		for obj, keys := range ix.docKeys {
			live := keys[:0]
			for _, k := range keys {
				if _, dead := ix.tombstones[k]; !dead {
					live = append(live, k)
				}
			}
			ix.docKeys[obj] = live
		}
	}
	return removed
}

// Stats returns a snapshot of the index's shape.
func (ix *refIndex) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := Stats{Objects: len(ix.docKeys), Tombstones: len(ix.tombstones)}
	for key, set := range ix.postings {
		if strings.Contains(key, " ") {
			s.PhraseKeys++
			s.PhrasePostings += len(set)
		} else {
			s.WordKeys++
			s.WordPostings += len(set)
		}
		s.Postings += len(set)
	}
	return s
}

// Keys returns the number of distinct keys (words and phrases) currently
// stored — a cheap size signal for monitoring, unlike the full Stats scan.
func (ix *refIndex) Keys() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Contains reports whether the exact key (word or phrase, raw form) is
// currently stored. Intended for tests and diagnostics.
func (ix *refIndex) Contains(label string) bool {
	key := morph.NormalizeLabel(label)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.postings[key]
	return ok
}

func refSortedIDs(set map[int64]struct{}) []int64 {
	out := make([]int64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
