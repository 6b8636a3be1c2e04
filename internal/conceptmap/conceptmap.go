// Package conceptmap implements the NNexus concept map (paper §2.2, Fig 3):
// a fast-access chained-hash structure filled with all the concept labels of
// all included corpora, used to determine available link targets while entry
// text is scanned.
//
// The map is keyed by the (morphologically normalized) first word of each
// concept label; each first word chains to the full labels beginning with
// that word, longest first, so that scanning always performs the
// longest-phrase match the paper mandates ("orthogonal function" wins over
// "orthogonal" and "function").
//
// # Concurrency model
//
// The map is read-dominated: every link request scans it, while writes only
// happen when entries are added, updated, or removed. The whole structure is
// therefore kept as an immutable snapshot published through an
// atomic.Pointer (the RCU pattern): readers — scans, Lookup, the
// stats accessors — load the current snapshot with a single atomic load and
// never take a lock, so the read path scales with cores. Writers serialize
// on a writer-only mutex and build the next generation copy-on-write: the
// snapshot's tables are split into fixed bucket arrays, so a write clones
// only the few buckets it touches (a handful of map entries each), never a
// whole table and never a whole first-word chain, then publishes the new
// snapshot atomically. A Writer gathers any number of adds and removes into
// one generation, so a batch clones each bucket once and publishes once. A
// reader consequently always observes either the complete old snapshot or
// the complete new one, never a torn chain and never part of a batch.
package conceptmap

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// ObjectID identifies an entry (object) across all corpora managed by an
// engine instance.
type ObjectID int64

// Match is one linkable occurrence found while scanning entry text: the
// token range [TokenStart, TokenEnd) matched the normalized concept Label,
// which is defined by every object in Candidates.
type Match struct {
	Label      string // normalized concept label, e.g. "planar graph"
	LabelID    int32  // the label's process-wide ID (morph.InternLabel)
	TokenStart int    // index of the first matched token
	TokenEnd   int    // one past the last matched token
	ByteStart  int    // byte offset of the match in the original text
	ByteEnd    int    // byte offset one past the match
	// Candidates is the sorted set of objects defining the label. The slice
	// is shared with the map's internal snapshot and MUST NOT be mutated.
	Candidates []ObjectID
}

// Text returns the raw matched text given the original entry text.
func (m Match) Text(original string) string {
	return original[m.ByteStart:m.ByteEnd]
}

// labelEntry is one indexed concept label. Entries are immutable once
// published in a snapshot: changing the object set of a label produces a
// fresh labelEntry.
type labelEntry struct {
	label  string     // full normalized label
	id     int32      // the label's ID (morph.InternLabel)
	nWords int        // number of words in the label
	ids    []ObjectID // objects defining the label, sorted ascending
}

// withObject returns a copy of the entry with id added (binary-search
// insertion keeps ids sorted without a re-sort), or the receiver when id is
// already present.
func (e *labelEntry) withObject(id ObjectID) *labelEntry {
	i := sort.Search(len(e.ids), func(i int) bool { return e.ids[i] >= id })
	if i < len(e.ids) && e.ids[i] == id {
		return e
	}
	ids := make([]ObjectID, 0, len(e.ids)+1)
	ids = append(ids, e.ids[:i]...)
	ids = append(ids, id)
	ids = append(ids, e.ids[i:]...)
	return &labelEntry{label: e.label, id: e.id, nWords: e.nWords, ids: ids}
}

// withoutObject returns a copy of the entry with id removed, nil when the
// removal leaves no defining objects, or the receiver when id was absent.
func (e *labelEntry) withoutObject(id ObjectID) *labelEntry {
	i := sort.Search(len(e.ids), func(i int) bool { return e.ids[i] >= id })
	if i >= len(e.ids) || e.ids[i] != id {
		return e
	}
	if len(e.ids) == 1 {
		return nil
	}
	ids := make([]ObjectID, 0, len(e.ids)-1)
	ids = append(ids, e.ids[:i]...)
	ids = append(ids, e.ids[i+1:]...)
	return &labelEntry{label: e.label, id: e.id, nWords: e.nWords, ids: ids}
}

// firstInfo is the per-first-word chain head: the distinct label lengths to
// probe (descending, so scans try the longest phrase first) and a refcount
// per length so removals retire a probe length in O(log n). The full labels
// themselves live in the snapshot's flat label table — a chain of thousands
// of labels costs a writer no more than a chain of one. firstInfo values
// are immutable once published; writers clone before changing.
type firstInfo struct {
	lengths    []int       // distinct word counts, descending
	lengthRefs map[int]int // labels per word count
	count      int         // labels chained under this first word
}

// clone returns a mutable copy.
func (f *firstInfo) clone() *firstInfo {
	ff := &firstInfo{
		lengths:    append([]int(nil), f.lengths...),
		lengthRefs: make(map[int]int, len(f.lengthRefs)),
		count:      f.count,
	}
	for k, v := range f.lengthRefs {
		ff.lengthRefs[k] = v
	}
	return ff
}

// addLength registers one more label of n words: a refcount bump when the
// length is already probed, otherwise a binary-search insertion into the
// descending lengths slice (the old linear dup-scan plus full re-sort was
// quadratic across a chain's lifetime).
func (f *firstInfo) addLength(n int) {
	if f.lengthRefs[n]++; f.lengthRefs[n] > 1 {
		return
	}
	i := sort.Search(len(f.lengths), func(i int) bool { return f.lengths[i] <= n })
	f.lengths = append(f.lengths, 0)
	copy(f.lengths[i+1:], f.lengths[i:])
	f.lengths[i] = n
}

// dropLength releases one label of n words, removing the length from the
// probe list when its refcount reaches zero.
func (f *firstInfo) dropLength(n int) {
	if f.lengthRefs[n]--; f.lengthRefs[n] > 0 {
		return
	}
	delete(f.lengthRefs, n)
	i := sort.Search(len(f.lengths), func(i int) bool { return f.lengths[i] <= n })
	if i < len(f.lengths) && f.lengths[i] == n {
		f.lengths = append(f.lengths[:i], f.lengths[i+1:]...)
	}
}

// numBuckets splits each snapshot table into fixed buckets so a write
// clones O(table/numBuckets) entries instead of the whole table. Must be a
// power of two.
const (
	numBuckets = 256
	bucketMask = numBuckets - 1
)

// bucketOf routes a label, or the scan's reusable phrase buffer spelling
// one, to its bucket (FNV-1a).
func bucketOf[K string | []byte](key K) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h & bucketMask)
}

// bucketOfWord routes a first word's vocabulary ID to its byFirst bucket.
// IDs are given out in sequence, so the low bits alone spread uniformly.
func bucketOfWord(w int32) int {
	return int(uint32(w) & bucketMask)
}

// bucketOfID routes an object to its byObject bucket. IDs are sequential in
// practice, so the low bits alone spread uniformly.
func bucketOfID(id ObjectID) int {
	return int(uint64(id) & bucketMask)
}

// snapshot is one immutable generation of the concept map. Everything
// reachable from a snapshot is read-only; writers build a new generation.
type snapshot struct {
	// byFirst holds the chain head of each normalized first word, keyed by
	// the word's vocabulary ID and bucketed by bucketOfWord. Buckets may be
	// nil (reads of nil maps are fine).
	byFirst [numBuckets]map[int32]*firstInfo
	// labels holds every indexed label, keyed by its full normalized text
	// and bucketed by bucketOf(label). Keeping labels flat (rather than
	// inside per-first-word chains) bounds a writer's copy-on-write cost by
	// the bucket size even when one first word chains thousands of labels.
	labels [numBuckets]map[string]*labelEntry
	// byObject records which normalized labels each object contributed
	// (bucketed by bucketOfID), so objects can be removed or updated.
	byObject [numBuckets]map[ObjectID][]string
	nLabels  int // number of distinct labels indexed
	objects  int // number of objects indexed
	// gen numbers the generation (monotonic from 0 at New) so the automaton
	// compiler can tell how far a compiled artifact trails the write stream.
	gen uint64
}

// Map is the concept map. The zero value is not usable; call New.
// All methods are safe for concurrent use; the read path is lock-free.
type Map struct {
	// snap is the current immutable generation, swapped atomically by
	// writers and loaded (once per operation) by readers.
	snap atomic.Pointer[snapshot]
	// writeMu serializes snapshot construction; readers never take it.
	writeMu sync.Mutex
	// comp is the Aho-Corasick automaton compiler state (see compiler.go):
	// an optional background goroutine compiles published snapshots into an
	// immutable matcher that serves scans until the next write lands.
	comp compilerState
}

// New returns an empty concept map.
func New() *Map {
	m := &Map{}
	m.snap.Store(&snapshot{})
	return m
}

// Writer is one generation of the map under construction: Begin opens it,
// Add and Remove change it, and Publish makes every change visible at once.
// A reader sees the map before Begin or after Publish, never in between, and
// the compiler is woken once per Publish, not once per change. The writer
// holds the map's write lock from Begin to Publish: every Writer must be
// published, or the next one waits forever.
type Writer struct {
	m *Map
	// next is the generation being built, nil until the first change: the
	// bucket arrays are copied (a flat pointer copy) then, individual buckets
	// lazily on first touch.
	next          *snapshot
	firstTouched  [numBuckets]bool
	labelsTouched [numBuckets]bool
	objTouched    [numBuckets]bool
	fiTouched     map[int32]bool
}

// Begin opens the map's next generation for writing.
func (m *Map) Begin() *Writer {
	m.writeMu.Lock()
	return &Writer{m: m}
}

// cur is the generation the writer reads: its own once it has changed one.
func (w *Writer) cur() *snapshot {
	if w.next != nil {
		return w.next
	}
	return w.m.snap.Load()
}

// change returns the generation under construction, starting it on the
// writer's first change.
func (w *Writer) change() *snapshot {
	if w.next == nil {
		old := w.m.snap.Load()
		w.next = &snapshot{
			byFirst:  old.byFirst,
			labels:   old.labels,
			byObject: old.byObject,
			nLabels:  old.nLabels,
			objects:  old.objects,
			gen:      old.gen + 1,
		}
		w.fiTouched = make(map[int32]bool)
	}
	return w.next
}

// Publish makes the writer's changes the map's current generation, wakes the
// compiler if there were any, and releases the write lock. The writer must
// not be used after it.
func (w *Writer) Publish() {
	if w.next != nil {
		w.m.snap.Store(w.next)
		w.m.markDirty()
	}
	w.m.writeMu.Unlock()
}

// AddObject indexes an object under every one of its concept labels (its
// title, defined concepts, and synonyms, per §2.2: "a list of terms the
// object defines, synonyms, and a title are provided (the concept labels)").
// Labels are normalized before indexing; duplicates collapse. Re-adding an
// existing object replaces its previous labels. It is one Add published as
// its own generation.
func (m *Map) AddObject(id ObjectID, labels []string) {
	w := m.Begin()
	w.Add(id, labels)
	w.Publish()
}

// RemoveObject removes every label contribution of the object, as its own
// generation. Removing an unknown object is a no-op.
func (m *Map) RemoveObject(id ObjectID) {
	w := m.Begin()
	w.Remove(id)
	w.Publish()
}

// Add is AddObject inside the writer's generation.
func (w *Writer) Add(id ObjectID, labels []string) {
	next := w.change()
	if _, ok := next.byObject[bucketOfID(id)][id]; ok {
		w.remove(id)
	}
	seen := make(map[string]struct{}, len(labels))
	var norms []string
	for _, raw := range labels {
		norm := morph.NormalizeLabel(raw)
		if norm == "" {
			continue
		}
		if _, dup := seen[norm]; dup {
			continue
		}
		seen[norm] = struct{}{}
		norms = append(norms, norm)
		// Into the vocabulary before the snapshot is published, so that a
		// text tokenized after the snapshot is pinned resolves every word of
		// every label it holds.
		for rest, more := norm, true; more; {
			var word string
			word, rest, more = strings.Cut(rest, " ")
			morph.InternWord(word)
		}
		w.index(id, norm)
	}
	w.objBucket(id)[id] = norms
	next.objects++
}

// Remove is RemoveObject inside the writer's generation.
func (w *Writer) Remove(id ObjectID) {
	if _, ok := w.cur().byObject[bucketOfID(id)][id]; ok {
		w.change()
		w.remove(id)
	}
}

// firstBucket returns the mutable byFirst bucket for a first word's ID.
func (w *Writer) firstBucket(first int32) map[int32]*firstInfo {
	i := bucketOfWord(first)
	if !w.firstTouched[i] {
		w.next.byFirst[i] = cloneBucket(w.next.byFirst[i])
		w.firstTouched[i] = true
	}
	return w.next.byFirst[i]
}

// labelBucket returns the mutable labels bucket for a full label.
func (w *Writer) labelBucket(norm string) map[string]*labelEntry {
	i := bucketOf(norm)
	if !w.labelsTouched[i] {
		w.next.labels[i] = cloneBucket(w.next.labels[i])
		w.labelsTouched[i] = true
	}
	return w.next.labels[i]
}

// objBucket returns the mutable byObject bucket for an id.
func (w *Writer) objBucket(id ObjectID) map[ObjectID][]string {
	i := bucketOfID(id)
	if !w.objTouched[i] {
		w.next.byObject[i] = cloneBucket(w.next.byObject[i])
		w.objTouched[i] = true
	}
	return w.next.byObject[i]
}

// cloneBucket copies a published bucket, with room for one more entry.
func cloneBucket[K comparable, V any](old map[K]V) map[K]V {
	cloned := make(map[K]V, len(old)+1)
	for k, v := range old {
		cloned[k] = v
	}
	return cloned
}

// firstForWrite returns a mutable chain head for the first word's ID,
// cloning the published one on first touch.
func (w *Writer) firstForWrite(first int32) *firstInfo {
	b := w.firstBucket(first)
	f := b[first]
	if f == nil {
		f = &firstInfo{lengthRefs: make(map[int]int)}
		b[first] = f
		w.fiTouched[first] = true
		return f
	}
	if !w.fiTouched[first] {
		f = f.clone()
		b[first] = f
		w.fiTouched[first] = true
	}
	return f
}

// remove unindexes an object inside the generation under construction.
func (w *Writer) remove(id ObjectID) {
	norms := w.next.byObject[bucketOfID(id)][id]
	delete(w.objBucket(id), id)
	w.next.objects--
	for _, norm := range norms {
		e, ok := w.next.labels[bucketOf(norm)][norm]
		if !ok {
			continue
		}
		replacement := e.withoutObject(id)
		if replacement == e {
			continue
		}
		if replacement != nil {
			w.labelBucket(norm)[norm] = replacement
			continue
		}
		delete(w.labelBucket(norm), norm)
		w.next.nLabels--
		first := morph.WordID(firstWord(norm))
		f := w.firstForWrite(first)
		f.dropLength(e.nWords)
		f.count--
		if f.count == 0 {
			delete(w.firstBucket(first), first)
			delete(w.fiTouched, first)
		}
	}
}

// index adds one normalized label of an object to the generation under
// construction.
func (w *Writer) index(id ObjectID, norm string) {
	if e, ok := w.next.labels[bucketOf(norm)][norm]; ok {
		if replacement := e.withObject(id); replacement != e {
			w.labelBucket(norm)[norm] = replacement
		}
		return
	}
	n := 1 + strings.Count(norm, " ")
	w.labelBucket(norm)[norm] = &labelEntry{label: norm, id: morph.InternLabel(norm), nWords: n, ids: []ObjectID{id}}
	w.next.nLabels++
	f := w.firstForWrite(morph.WordID(firstWord(norm)))
	f.addLength(n)
	f.count++
}

// ScanAppendAuto walks the token stream and appends to dst every
// longest-phrase concept match together with all candidate target objects.
// Matches never overlap; after a phrase match the scan resumes past the
// phrase (the paper's "longer phrases semantically subsume their shorter
// atoms"). The scan is lock-free: it reads one immutable snapshot for its
// whole run, the map as it stands when called: Pin before tokenizing to scan
// the generation the tokens were resolved against.
//
// When a compiled automaton matching the snapshot is published (see
// StartCompiler / CompileNow), the scan is served by its one-pass
// Aho-Corasick walk; otherwise — automaton disabled, not yet built, or
// trailing the snapshot generation — it falls back to the chained-hash walk
// below. Both paths produce bit-identical match streams; the second result
// reports whether the automaton served the scan, so callers can attribute
// latency per path.
func (m *Map) ScanAppendAuto(dst []Match, tokens []tokenizer.Token) ([]Match, bool) {
	return m.Pin().ScanAppendAuto(dst, tokens)
}

// Pinned is one generation of a map, as Pin found it; the zero Pinned is a
// map that holds nothing.
//
// A token carries the vocabulary's ID of its word, 0 when the vocabulary did
// not hold the word, and a scan takes a token of ID 0 to be in no label.
// Every label's words enter the vocabulary before the label is published, so
// that holds for a generation pinned before its text was tokenized. A label
// published later may hold a word the tokens missed: pin first, then
// tokenize, then scan the pinned generation.
type Pinned struct {
	m    *Map
	snap *snapshot
}

// Pin returns the map's current generation.
func (m *Map) Pin() Pinned {
	return Pinned{m: m, snap: m.snap.Load()}
}

// ScanAppendAuto is Map.ScanAppendAuto over the pinned generation: the
// automaton serves it when it was compiled from that generation.
func (p Pinned) ScanAppendAuto(dst []Match, tokens []tokenizer.Token) ([]Match, bool) {
	if p.snap == nil {
		return dst, false
	}
	// The automaton is exact only for the precise snapshot it was compiled
	// from; pointer identity is the cheapest possible staleness check.
	if aut := p.m.comp.aut.Load(); aut != nil && aut.src == p.snap {
		p.m.comp.autScans.Add(1)
		return aut.scanAppend(dst, tokens), true
	}
	p.m.comp.fallbackScans.Add(1)
	return p.snap.scanChained(dst, tokens, true), false
}

// ScanAllAppend is the all-positions scan of the pinned generation: it
// reports the longest concept match starting at every token position,
// without consuming the matched tokens — after emitting a match at position
// i the scan resumes at i+1, not past the phrase. The engine's multi-corpus
// scan runs it over each target namespace: the union of the streams contains
// the longest match at every position, and a greedy walk over that union —
// accept a match whose TokenStart is past the previous winner's TokenEnd,
// drop shadowed ones — reproduces the ScanAppendAuto stream of one map
// holding every namespace's labels.
//
// ScanAllAppend always takes the chained-hash path: the compiled automaton
// keeps only the longest label ending at each state, which serves the
// greedy consume-on-match walk but cannot report the longest match at every
// start position.
func (p Pinned) ScanAllAppend(dst []Match, tokens []tokenizer.Token) []Match {
	if p.snap == nil {
		return dst
	}
	return p.snap.scanChained(dst, tokens, false)
}

// scanChained is the paper's §2.2 chained-hash scan over one immutable
// snapshot: per position, probe the first-word chain by the token's word ID
// and try its label lengths longest-first, spelling each phrase from the
// vocabulary's words. With consume set the walk resumes past each match
// (the greedy leftmost-longest scan); without it the walk resumes at the
// next token, reporting the longest match starting at every position (see
// ScanAllAppend).
func (snap *snapshot) scanChained(dst []Match, tokens []tokenizer.Token, consume bool) []Match {
	vocab := morph.Current()
	// phrase is a reusable byte buffer; probing the label table with
	// b[string(phrase)] compiles to a no-allocation map lookup.
	var phrase []byte
	for i := 0; i < len(tokens); {
		first := tokens[i].Word
		f := snap.byFirst[bucketOfWord(first)][first]
		if f == nil { // no label starts with the word, or no label holds it
			i++
			continue
		}
		// known counts the tokens from i on, up to the longest label, whose
		// words some label may hold.
		known := 1
		for known < f.lengths[0] && i+known < len(tokens) && tokens[i+known].Word != 0 {
			known++
		}
		step := 1
		for _, n := range f.lengths { // longest first
			if n > known {
				continue
			}
			phrase = phrase[:0]
			for j := 0; j < n; j++ {
				if j > 0 {
					phrase = append(phrase, ' ')
				}
				phrase = append(phrase, vocab.Word(tokens[i+j].Word)...)
			}
			e, ok := snap.labels[bucketOf(phrase)][string(phrase)]
			if !ok {
				continue
			}
			dst = append(dst, Match{
				Label:      e.label,
				LabelID:    e.id,
				TokenStart: i,
				TokenEnd:   i + n,
				ByteStart:  tokens[i].Start,
				ByteEnd:    tokens[i+n-1].End,
				Candidates: e.ids,
			})
			if consume {
				step = n
			}
			break
		}
		i += step
	}
	return dst
}

// Lookup returns the candidate objects defining exactly the given label
// (normalized internally), or nil if the concept is unknown. The returned
// slice is a copy and may be freely mutated by the caller.
func (m *Map) Lookup(label string) []ObjectID {
	norm := morph.NormalizeLabel(label)
	if norm == "" {
		return nil
	}
	if e, ok := m.snap.Load().labels[bucketOf(norm)][norm]; ok {
		return append([]ObjectID(nil), e.ids...)
	}
	return nil
}

// Labels returns the number of distinct concept labels indexed.
func (m *Map) Labels() int {
	return m.snap.Load().nLabels
}

// Stats summarizes the map shape for diagnostics.
type Stats struct {
	Objects      int
	Labels       int
	FirstWords   int
	LongestChain int
}

// Stats returns a snapshot of the map's shape.
func (m *Map) Stats() Stats {
	snap := m.snap.Load()
	s := Stats{Objects: snap.objects, Labels: snap.nLabels}
	for i := range snap.byFirst {
		s.FirstWords += len(snap.byFirst[i])
		for _, f := range snap.byFirst[i] {
			if f.count > s.LongestChain {
				s.LongestChain = f.count
			}
		}
	}
	return s
}

// String implements fmt.Stringer for debug output.
func (m *Map) String() string {
	s := m.Stats()
	return fmt.Sprintf("conceptmap{objects=%d labels=%d firstWords=%d longestChain=%d}",
		s.Objects, s.Labels, s.FirstWords, s.LongestChain)
}

func firstWord(norm string) string {
	if i := strings.IndexByte(norm, ' '); i >= 0 {
		return norm[:i]
	}
	return norm
}
