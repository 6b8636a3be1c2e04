// Package invindex implements the NNexus invalidation index (paper §2.5,
// Fig 6): an adaptive inverted index over both words and phrases, used to
// determine — when concept labels are added to or changed in the collection
// — the minimal superset of entries that might link to the new concept and
// therefore must be invalidated (re-linked before next display).
//
// Two properties drive the design:
//
//   - Prefix property: for every phrase indexed, all shorter prefixes of
//     that phrase are also indexed for every occurrence of the longer
//     phrase, so a lookup with a shorter tuple never misses an entry.
//   - Adaptivity: longer phrases are only retained if they appear
//     frequently; since phrase frequencies fall off in a Zipf distribution,
//     the index stays around twice the size of a word-based inverted index
//     while invalidating far fewer false positives.
//
// Correctness invariant (tested): every key present in the index has a
// complete postings list — it contains every live object whose text
// contains the key. Compaction removes rare long phrases entirely and
// tombstones them so they can never reappear with partial history;
// lookups then fall back to the longest surviving prefix, which is
// guaranteed complete (single words are never compacted).
//
// Representation: a word is its ID in the process's vocabulary (morph.Intern)
// and every key is in one path-compressed trie over them: a node is a run of
// up to four keys, each the one before it extended by a word, that share one
// state (count and postings), so a new n-gram and its extensions, new too,
// are one node. The root's edges are a slice indexed by word ID, every other
// edge is in one pointer-free open-addressing table, the nodes pointer-free
// in fixed-size pages, a single posting inline in its node and more in a
// sorted ID slice, an entry its word-ID sequence. No key is ever
// materialised as a string.
package invindex

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// DefaultMaxPhraseLen bounds the length of indexed phrases. The paper notes
// "there is no limit to how long a stored phrase can be; however, very long
// phrases are extremely unlikely to appear" — in practice concept labels
// beyond five words are vanishingly rare on PlanetMath.
const DefaultMaxPhraseLen = 5

// DefaultCompactBelow is the occurrence count below which phrases (length
// ≥ 2) are dropped during compaction.
const DefaultCompactBelow = 2

// DefaultCompactEvery is the auto-compaction period the engine runs its
// indexes with: WithAutoCompact(DefaultCompactEvery, DefaultCompactBelow).
const DefaultCompactEvery = 512

// node is a run of keys: the word or phrase its trie path from the root
// (node 0) spells, then that key extended by each word of more in turn, up
// to the first 0 (no word's ID). The keys of a run share their count and
// postings; a walk that would set them apart splits the run first. A root
// child is one key, a word. Never deleted: its count and its tombstone
// outlive its postings.
type node struct {
	count int32 // occurrences across all adds; tombstoned once compacted
	// slot is an index into Index.lists, noSlot while the node has no
	// postings, or -2 - object while object is its one posting (inlineSlot).
	slot int32
	more [runMore]int32
}

// runMore is how many keys a node holds beyond its first.
const runMore = 3

// pageSize is how many nodes a page holds: the nodes never move, so a
// growing index copies none of them.
const pageSize = 4096

const tombstoned, noSlot = -1, -1

// keys is the number of keys in nd's run.
func (nd *node) keys() int {
	n := 1
	for n <= runMore && nd.more[n-1] != 0 {
		n++
	}
	return n
}

// inlineSlot is the slot that holds object inline, if object is in
// [0, MaxInt32-2]; any other ID is kept in a list.
func inlineSlot(object int64) (int32, bool) {
	if object < 0 || object > math.MaxInt32-2 {
		return 0, false
	}
	return int32(-2 - object), true
}

// inlined is the object an inline slot (< noSlot) holds.
func inlined(slot int32) int64 { return int64(-2 - slot) }

// Index is the invalidation index. All methods are safe for concurrent use.
type Index struct {
	mu    sync.RWMutex
	roots []int32           // word ID → the root's child, 0 for none or past its end
	edges edgeTable         // parent node<<32 | word ID → child node, parent ≥ 1
	pages [][]node          // node i is pages[i/pageSize][i%pageSize], node 0 the root, the empty phrase
	long  []uint64          // bit i: node i's keys are phrases, compaction may drop them
	lists [][]int64         // sorted object IDs, one list per node with two postings or more
	free  []int32           // slots of lists given up by emptied, compacted or spilled nodes
	docs  map[int64][]int32 // object → word-ID sequence of its text
	keys  int               // keys that hold postings

	tombstones   int
	maxPhraseLen int
	adds         int // AddTokens/AddText calls since construction
	// auto-compaction: every autoEvery adds, phrases rarer than
	// autoBelow are dropped (0 disables).
	autoEvery, autoBelow int
}

// Option configures an Index.
type Option func(*Index)

// WithAutoCompact makes the index compact itself every `every` document
// additions, dropping phrases seen fewer than `below` times. This is the
// adaptive behaviour that keeps the index near the size of a word index
// under Zipf-distributed phrase frequencies.
func WithAutoCompact(every, below int) Option {
	return func(ix *Index) {
		if every > 0 && below > 0 {
			ix.autoEvery = every
			ix.autoBelow = below
		}
	}
}

// New returns an empty invalidation index.
func New(opts ...Option) *Index {
	ix := &Index{
		pages:        [][]node{{{slot: noSlot}}}, // grown by append up to a page
		long:         []uint64{0},
		docs:         make(map[int64][]int32),
		maxPhraseLen: DefaultMaxPhraseLen,
	}
	for _, o := range opts {
		o(ix)
	}
	return ix
}

// tokenBufs recycles AddText's tokenizer buffers.
var tokenBufs = sync.Pool{New: func() any { return new([]tokenizer.Token) }}

// AddText tokenizes the entry text and indexes the object under every word
// and every phrase up to the configured maximum length. Re-adding an object
// replaces its previous contribution.
func (ix *Index) AddText(object int64, text string) {
	// Tokenized before add takes the lock: readers wait for the indexing only.
	buf := tokenBufs.Get().(*[]tokenizer.Token)
	toks := tokenizer.TokenizeInternAppend((*buf)[:0], text) // a stored body: the write path
	ix.add(object, len(toks), func(i int) int32 { return toks[i].Word })
	// Pin no text, keep no buffer one huge body needed (core's maxPooledTokens).
	if clear(toks); cap(toks) <= 8192 {
		*buf = toks
		tokenBufs.Put(buf)
	}
}

// node returns node i.
func (ix *Index) node(i int32) *node { return &ix.pages[uint32(i)/pageSize][uint32(i)%pageSize] }

// phrase reports whether node i's keys are two words or more.
func (ix *Index) phrase(i int) bool { return ix.long[i/64]&(1<<(i%64)) != 0 }

func edgeKey(parent, word int32) uint64 {
	return uint64(parent)<<32 | uint64(uint32(word))
}

// child returns the node word leads to from the last key of node at, 0 for
// none: node 0 is the root and never anyone's child.
func (ix *Index) child(at, word int32) int32 {
	if at == 0 {
		if int(word) >= len(ix.roots) {
			return 0
		}
		return ix.roots[word]
	}
	return ix.edges.get(edgeKey(at, word))
}

// newChild adds a node of one key and no state, which word leads to from
// node at; an edge at had on word leads there instead.
func (ix *Index) newChild(at, word int32) int32 {
	page := &ix.pages[len(ix.pages)-1]
	if len(*page) == pageSize {
		ix.pages = append(ix.pages, make([]node, 0, pageSize))
		page = &ix.pages[len(ix.pages)-1]
	}
	child := int32((len(ix.pages)-1)*pageSize + len(*page))
	*page = append(*page, node{slot: noSlot})
	if child%64 == 0 {
		ix.long = append(ix.long, 0)
	}
	if at == 0 {
		if int(word) >= len(ix.roots) {
			// To the vocabulary's length: every word it gave out so far.
			ix.roots = append(ix.roots, make([]int32, morph.Words()+1-len(ix.roots))...)
		}
		ix.roots[word] = child
	} else {
		ix.long[child/64] |= 1 << (child % 64)
		ix.edges.put(edgeKey(at, word), child)
	}
	return child
}

// add replaces the object's contribution by the n word IDs word yields: it
// records them as the object's text and counts and posts every n-gram. A
// tombstoned n-gram is skipped; its extensions are not.
func (ix *Index) add(object int64, n int, word func(i int) int32) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// The old sequence's memory is reused, once Remove has walked it.
	seq := slices.Grow(ix.docs[object][:0], n)
	ix.removeLocked(object)
	for i := 0; i < n; i++ {
		seq = append(seq, word(i))
	}
	ix.docs[object] = seq
	for i := range seq {
		ix.countLocked(object, seq[i:min(i+ix.maxPhraseLen, len(seq))])
	}
	ix.adds++
	if ix.autoEvery > 0 && ix.adds%ix.autoEvery == 0 {
		ix.compactLocked(ix.autoBelow)
	}
}

// countLocked counts and posts object under every prefix of ws, splitting a
// run whose keys it would set apart: one it stops inside (unless tombstoned,
// where nothing changes) or leaves midway. A tombstoned key is skipped; its
// extensions are not.
func (ix *Index) countLocked(object int64, ws []int32) {
	at := int32(0)
	// Once an n-gram is new so are its extensions: no need to probe, and
	// they share its run.
	fresh := false
	for len(ws) > 0 {
		next := int32(0)
		if !fresh {
			next = ix.child(at, ws[0])
		}
		n := 1 // the keys of next the walk takes
		if next == 0 {
			next, fresh = ix.newChild(at, ws[0]), true
			if at != 0 {
				n = min(len(ws), 1+runMore)
				copy(ix.node(next).more[:], ws[1:n])
			}
		} else {
			nd := ix.node(next)
			for n < len(ws) && n <= runMore && nd.more[n-1] == ws[n] {
				n++
			}
			if n < nd.keys() && (n < len(ws) || nd.count != tombstoned) {
				next = ix.splitLocked(at, ws[0], next, n)
			}
		}
		if nd := ix.node(next); nd.count != tombstoned {
			if nd.count < math.MaxInt32 {
				nd.count++
			}
			ix.postLocked(nd, object)
		}
		at, ws = next, ws[n:]
	}
}

// splitLocked cuts the run of node at, which word leads to from parent,
// after its first k keys (0 < k < its length). They become a new node, the
// head, with a copy of the state, in at's place; at keeps the other keys
// and its ID, which its children's edges use, under the head. It returns
// the head.
func (ix *Index) splitLocked(parent, word, at int32, k int) int32 {
	head := ix.newChild(parent, word)
	nd, hd := ix.node(at), ix.node(head)
	hd.count = nd.count
	copy(hd.more[:k-1], nd.more[:k-1])
	ix.edges.put(edgeKey(head, nd.more[k-1]), at)
	var rest [runMore]int32
	copy(rest[:], nd.more[k:])
	nd.more = rest
	if hd.slot = nd.slot; nd.slot >= 0 {
		hd.slot = ix.takeListLocked()
		ix.lists[hd.slot] = append(ix.lists[hd.slot], ix.lists[nd.slot]...)
	}
	return head
}

// postLocked adds object to nd's postings. A node's first posting is inline
// if it can be; a second spills it into a list, taken from the free slots
// first. Import adds rising IDs: an append.
func (ix *Index) postLocked(nd *node, object int64) {
	switch {
	case nd.slot == noSlot:
		ix.keys += nd.keys()
		if slot, ok := inlineSlot(object); ok {
			nd.slot = slot
			return
		}
		nd.slot = ix.takeListLocked()
	case nd.slot < noSlot:
		single := inlined(nd.slot)
		if single == object {
			return
		}
		nd.slot = ix.takeListLocked()
		ix.lists[nd.slot] = append(ix.lists[nd.slot], single)
	}
	ids := ix.lists[nd.slot]
	if n := len(ids); n == 0 || ids[n-1] < object {
		ix.lists[nd.slot] = append(ids, object)
	} else if i, found := slices.BinarySearch(ids, object); !found {
		ix.lists[nd.slot] = slices.Insert(ids, i, object)
	}
}

// takeListLocked returns the slot of an empty list.
func (ix *Index) takeListLocked() int32 {
	if n := len(ix.free); n > 0 {
		slot := ix.free[n-1]
		ix.free = ix.free[:n-1]
		return slot
	}
	ix.lists = append(ix.lists, nil)
	return int32(len(ix.lists) - 1)
}

// releaseLocked takes nd's postings away; a list's memory stays with its slot.
func (ix *Index) releaseLocked(nd *node) {
	if nd.slot >= 0 {
		ix.lists[nd.slot] = ix.lists[nd.slot][:0]
		ix.free = append(ix.free, nd.slot)
	}
	ix.keys -= nd.keys()
	nd.slot = noSlot
}

// appendPostings appends the object IDs slot holds to dst.
func (ix *Index) appendPostings(dst []int64, slot int32) []int64 {
	if slot < noSlot {
		return append(dst, inlined(slot))
	}
	return append(dst, ix.lists[slot]...)
}

// Remove deletes an object's contribution from the index.
func (ix *Index) Remove(object int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(object)
}

// removeLocked walks the object's n-grams as add did (every key on the way
// exists) and withdraws the object's postings. Counts stay. It never splits:
// a run holds the object only if each of its keys was walked by one of the
// object's n-grams, so each of them loses the object too.
func (ix *Index) removeLocked(object int64) {
	seq := ix.docs[object]
	delete(ix.docs, object)
	for i := range seq {
		ws := seq[i:min(i+ix.maxPhraseLen, len(seq))]
		for at := int32(0); len(ws) > 0; {
			at = ix.child(at, ws[0])
			nd := ix.node(at)
			ws = ws[min(nd.keys(), len(ws)):]
			if nd.slot == noSlot {
				continue
			}
			// Not found: an earlier occurrence of the n-gram removed it.
			if nd.slot < noSlot {
				if inlined(nd.slot) == object {
					ix.releaseLocked(nd)
				}
				continue
			}
			ids := ix.lists[nd.slot]
			if j, found := slices.BinarySearch(ids, object); found {
				ix.lists[nd.slot] = slices.Delete(ids, j, j+1)
				if len(ids) == 1 {
					ix.releaseLocked(nd)
				}
			}
		}
	}
}

// labelWords returns the word IDs of a label's normalized words, 0 for a
// word the vocabulary does not hold: no text has it, and no node leads on it.
func labelWords(label string) []int32 {
	words := strings.Fields(morph.NormalizeLabel(label))
	ids := make([]int32, len(words))
	for i, w := range words {
		ids[i] = morph.WordID(w)
	}
	return ids
}

// deepestLocked walks words from the root as far as the trie goes, which is
// at most maxPhraseLen deep: the slot of the last node on the way that holds
// postings, and that of the node the whole path ends at, noSlot for none.
func (ix *Index) deepestLocked(words []int32) (deepest, last int32) {
	deepest, last = noSlot, noSlot
	at := int32(0)
	for len(words) > 0 {
		if at = ix.child(at, words[0]); at == 0 {
			return deepest, noSlot
		}
		nd := ix.node(at)
		if last = nd.slot; last != noSlot {
			deepest = last
		}
		n := 1
		for ; n < len(words) && n <= runMore && nd.more[n-1] != 0; n++ {
			if nd.more[n-1] != words[n] {
				return deepest, noSlot
			}
		}
		words = words[n:]
	}
	return deepest, last
}

// Lookup returns the IDs of the objects that must be invalidated when the
// given concept label is added to (or changed in) the collection: the
// postings of the longest indexed prefix of the label. The result is a
// superset of the objects that actually invoke the label, and never misses
// one (prefix property). A label whose first word has never been seen
// invalidates nothing. The caller owns the returned slice.
func (ix *Index) Lookup(label string) []int64 {
	words := labelWords(label)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	slot, _ := ix.deepestLocked(words)
	if slot == noSlot {
		return nil
	}
	return ix.appendPostings(nil, slot)
}

// LookupWordUnion is the non-adaptive baseline used for the ablation in the
// evaluation: it simulates a plain word-based inverted index by returning
// the union of the postings of every single word of the label — the larger
// invalidation set the paper's Fig 6 example warns about.
func (ix *Index) LookupWordUnion(label string) []int64 {
	words := labelWords(label)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var union []int64
	for _, w := range words {
		if _, slot := ix.deepestLocked([]int32{w}); slot != noSlot {
			union = ix.appendPostings(union, slot)
		}
	}
	slices.Sort(union)
	return slices.Compact(union)
}

// Compact drops every phrase key (length ≥ 2) whose total occurrence count
// is below minCount, tombstoning it so it is never partially re-admitted.
// Single-word keys are always kept, preserving the lookup fallback.
// It returns the number of keys removed.
func (ix *Index) Compact(minCount int) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.compactLocked(minCount)
}

// compactLocked is one pass over the nodes, which drops a run's keys
// together. Only phrases that hold postings are candidates: one emptied by
// Remove resumes from its count.
func (ix *Index) compactLocked(minCount int) int {
	removed := 0
	for p, page := range ix.pages {
		for j := range page {
			nd := &page[j]
			if !ix.phrase(p*pageSize+j) || nd.slot == noSlot || int(nd.count) >= minCount {
				continue
			}
			removed += nd.keys()
			ix.releaseLocked(nd)
			nd.count = tombstoned
		}
	}
	ix.tombstones += removed
	return removed
}

// Stats describes the index shape.
type Stats struct {
	Objects        int
	WordKeys       int
	PhraseKeys     int
	Postings       int // total posting entries across all keys
	WordPostings   int // posting entries under single-word keys
	PhrasePostings int // posting entries under phrase keys
	Tombstones     int
	// Bytes estimates the heap held, less the process's vocabulary (shared,
	// it grows with the words, not the text): exact for the slices, the edge
	// table's included, and docEntry an entry for the map of texts;
	// TestIndexBudget holds it within 1.25x of the heap.
	Bytes int
}

// Heap per entry of a map[int64][]int32, mid-range of what was measured
// between two table doublings: 53–82 bytes with the bucket maps of go.mod's go
// 1.22 (GOEXPERIMENT=noswissmap), 55–92 with go1.24's swiss tables. A third
// implementation needs measuring.
const docEntry = 66

// SizeRatio returns the index's total size relative to a plain word-based
// inverted index (measured in posting entries) — the quantity behind the
// paper's "around twice the size of a simple word-based inverted index".
func (s Stats) SizeRatio() float64 {
	if s.WordPostings == 0 {
		return 0
	}
	return float64(s.Postings) / float64(s.WordPostings)
}

// Stats returns a snapshot of the index's shape.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := Stats{Objects: len(ix.docs), Tombstones: ix.tombstones}
	for p, page := range ix.pages {
		for j := range page {
			nd := &page[j]
			if nd.slot == noSlot {
				continue
			}
			keys, n := nd.keys(), 1
			if nd.slot >= 0 {
				n = len(ix.lists[nd.slot])
			}
			if ix.phrase(p*pageSize + j) {
				s.PhraseKeys += keys
				s.PhrasePostings += keys * n
			} else {
				s.WordKeys += keys
				s.WordPostings += keys * n
			}
			s.Postings += keys * n
		}
		s.Bytes += cap(page) * 20 // sizeof(node)
	}
	s.Bytes += cap(ix.edges.keys)*12 + cap(ix.roots)*4 + len(ix.docs)*docEntry +
		cap(ix.pages)*24 + cap(ix.long)*8 + cap(ix.lists)*24 + cap(ix.free)*4
	for _, ids := range ix.lists {
		s.Bytes += cap(ids) * 8
	}
	for _, seq := range ix.docs {
		s.Bytes += cap(seq) * 4
	}
	return s
}

// Keys returns the number of distinct keys (words and phrases) currently
// stored — a cheap size signal for monitoring, unlike the full Stats scan.
func (ix *Index) Keys() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.keys
}

// Contains reports whether the exact key (word or phrase, raw form) is
// currently stored. Intended for tests and diagnostics.
func (ix *Index) Contains(label string) bool {
	words := labelWords(label)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, slot := ix.deepestLocked(words)
	return slot != noSlot
}

// edgeTable maps a key parent<<32 | word, parent ≥ 1, to a child node: open
// addressing over two parallel pointer-free arrays, a power-of-two capacity,
// linear probing from a multiplicative hash. Key 0 marks an empty slot. Edges
// are never deleted, so there are no tombstones; past 7/8 full the table
// doubles and rehashes every key.
type edgeTable struct {
	keys     []uint64
	children []int32 // as long as keys
	n        int
	shift    uint // 64 - log2(len(keys))
}

// home is key's first probe.
func (t *edgeTable) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// get returns key's child, 0 for none.
func (t *edgeTable) get(key uint64) int32 {
	mask := len(t.keys) - 1
	if mask < 0 {
		return 0
	}
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return t.children[i]
		case 0:
			return 0
		}
	}
}

// put sets key's child, key ≠ 0.
func (t *edgeTable) put(key uint64, child int32) {
	if (t.n+1)*8 > len(t.keys)*7 {
		t.grow()
	}
	mask := len(t.keys) - 1
	i := t.home(key)
	for t.keys[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	if t.keys[i] == 0 {
		t.keys[i] = key
		t.n++
	}
	t.children[i] = child
}

// grow doubles the table, from 64 slots at first.
func (t *edgeTable) grow() {
	keys, children := t.keys, t.children
	size := max(64, 2*len(keys))
	t.keys, t.children = make([]uint64, size), make([]int32, size)
	t.n, t.shift = 0, uint(64-bits.TrailingZeros(uint(size)))
	for i, key := range keys {
		if key != 0 {
			t.put(key, children[i])
		}
	}
}
