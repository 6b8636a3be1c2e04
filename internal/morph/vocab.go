package morph

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// The vocabulary is the process's one table of words: every surface form the
// write path has met, mapped to its normalized word and that word's ID. A
// token carries the ID (tokenizer.Token.Word), and the concept-map automaton
// and the invalidation index key on it, so a label and its invocation meet
// on one integer instead of hashing the same string again in every layer.
//
// IDs start at 1; 0 means "not in the vocabulary". The vocabulary only grows,
// and only on the write path: Intern and InternWord are called for the words
// of a stored body and of a concept label. Read input is looked up, never
// added, so the text a server is asked to link cannot grow it. IDs never leave
// the process: the wire, the WAL and snapshots carry words, not IDs.
//
// Readers never lock. Writers serialise on one mutex, write what a new slot
// will point to, then publish the slot with one atomic store of its tag;
// growth copies everything into a table twice the size and publishes that
// through an atomic.Pointer, while a reader still on the old table sees all
// it saw.
var vocab = newVocabulary()

// newVocabulary returns an empty vocabulary under a random seed.
func newVocabulary() *vocabulary {
	seed := maphash.MakeSeed()
	v := new(vocabulary)
	v.table.Store(newVocabTable(1<<10, [2]uint64{maphash.String(seed, "0"), maphash.String(seed, "1")}))
	return v
}

type vocabulary struct {
	table atomic.Pointer[vocabTable]
	mu    sync.Mutex   // serialises writers
	n     int          // keys, guarded by mu
	nLong int          // keys longer than sixteen bytes, guarded by mu
	words atomic.Int32 // IDs given out: stored under mu, loaded by anyone
}

// vocabTable is an open-addressed hash table at most half full, probed
// linearly. Its slots are pointer-free and carry the key and its word's ID:
// a key of up to sixteen bytes resolves without reading anything but its
// slot and the word it names.
type vocabTable struct {
	slots []vocabSlot
	words []string  // word ID → word; "" at 0
	long  []string  // the keys longer than sixteen bytes
	seed  [2]uint64 // of the hash, random per process
}

// vocabSlot is one key: the two words keyWords makes of it (the second, for
// a key longer than sixteen bytes, the key's index in long), and a tag its
// writer stores last — the key's length, whether it is a word, and the
// word's ID; 0 while the slot is empty. Slots are never cleared.
type vocabSlot struct {
	k0, k1 uint64
	tag    atomic.Uint64
}

const (
	tagWord = 1 << 31 // the key is a word, not a surface form
	tagID   = tagWord - 1
)

// newVocabTable makes a table for up to slots/2 keys.
func newVocabTable(slots int, seed [2]uint64) *vocabTable {
	return &vocabTable{
		slots: make([]vocabSlot, slots),
		words: make([]string, slots/2+1),
		long:  make([]string, slots/2),
		seed:  seed,
	}
}

// keyWords returns two words that together with len(s) are s, if s is at
// most sixteen bytes: its first and last eight bytes, which overlap in a
// shorter key; below eight bytes, its first and last four, or its first,
// middle and last byte. A longer key's words are its ends.
func keyWords(s string) (k0, k1 uint64) {
	switch n := len(s); {
	case n >= 8:
		return le64(s), le64(s[n-8:])
	case n >= 4:
		return le32(s) | le32(s[n-4:])<<32, 0
	case n > 0:
		return uint64(s[0]) | uint64(s[n/2])<<8 | uint64(s[n-1])<<16, 0
	}
	return 0, 0
}

func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// mix is a 64x64→128-bit multiply folded to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hash hashes a key from its words, its kind — the tag's length and word bit,
// so that a word and the surface form spelled the same start apart — and,
// for a key s longer than sixteen bytes, its middle s[8:len(s)-8], under the
// process's random seed.
func (t *vocabTable) hash(k0, k1, kind uint64, s string) uint64 {
	h := mix(k0^t.seed[0], k1^t.seed[1]^kind)
	for i := 8; i < len(s)-8; i += 8 {
		h = mix(h^le64(s[i:]), t.seed[0])
	}
	return h
}

// find returns the tag of key, 0 for none. Readers call it once a token, so
// it spells out keyWords and hash for a key of up to sixteen bytes and calls
// nothing: under the race detector, which instruments every call, the three
// calls cost more than the probe.
func (t *vocabTable) find(key string, word bool) uint64 {
	var k0, k1 uint64
	switch n := len(key); {
	case n >= 8:
		k0, k1 = le64(key), le64(key[n-8:])
	case n >= 4:
		k0 = le32(key) | le32(key[n-4:])<<32
	case n > 0:
		k0 = uint64(key[0]) | uint64(key[n/2])<<8 | uint64(key[n-1])<<16
	}
	want := uint64(uint32(len(key))) << 32
	if word {
		want |= tagWord
	}
	h := mix(k0^t.seed[0], k1^t.seed[1]^want)
	if len(key) > 16 {
		h = t.hash(k0, k1, want, key)
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		tag := sl.tag.Load()
		if tag == 0 {
			return 0
		}
		if tag&^tagID != want || sl.k0 != k0 {
			continue
		}
		if len(key) <= 16 && sl.k1 == k1 || len(key) > 16 && t.long[sl.k1] == key {
			return tag
		}
	}
}

// place publishes a slot under hash h.
func (t *vocabTable) place(h, k0, k1, tag uint64) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].tag.Load() != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].k0, t.slots[i].k1 = k0, k1
	t.slots[i].tag.Store(tag)
}

// addLocked adds key, resolving to word id, growing the table first when
// full.
func (v *vocabulary) addLocked(key string, word bool, id int32) {
	t := v.table.Load()
	if v.n == len(t.slots)/2 {
		grown := newVocabTable(2*len(t.slots), t.seed)
		copy(grown.words, t.words)
		copy(grown.long, t.long)
		for i := range t.slots {
			sl := &t.slots[i]
			tag := sl.tag.Load()
			if tag == 0 {
				continue
			}
			s, k1 := "", sl.k1
			if tag>>32 > 16 {
				s = t.long[k1]
				_, k1 = keyWords(s)
			}
			grown.place(t.hash(sl.k0, k1, tag&^tagID, s), sl.k0, sl.k1, tag)
		}
		v.table.Store(grown)
		t = grown
	}
	if word {
		t.words[id] = key
	}
	kind := uint64(uint32(len(key))) << 32
	if word {
		kind |= tagWord
	}
	k0, k1 := keyWords(key)
	h := t.hash(k0, k1, kind, key)
	if len(key) > 16 {
		t.long[v.nLong] = key
		k1 = uint64(v.nLong)
		v.nLong++
	}
	t.place(h, k0, k1, kind|uint64(id))
	v.n++
}

// wordLocked returns word's ID and its copy in the vocabulary, adding both
// when new.
func (v *vocabulary) wordLocked(word string) (string, int32) {
	t := v.table.Load()
	if id := int32(t.find(word, true) & tagID); id != 0 {
		return t.words[id], id
	}
	word = strings.Clone(word) // not pinning the text it came from
	id := v.words.Load() + 1
	v.addLocked(word, true, id)
	v.words.Store(id)
	return word, id
}

// Snapshot is the vocabulary as Current found it: it holds every form
// interned before, and may hold some interned after. It copies the table's
// slice headers and seed, so a reader that resolves many forms from one — the
// tokenizer, for one text — loads the shared table once and then reads only
// the slots it probes.
type Snapshot struct{ t vocabTable }

// Current returns the vocabulary as it stands.
func Current() Snapshot { return Snapshot{*vocab.table.Load()} }

// FormID returns the ID of a surface form's normalized word, without locking
// and without allocating; 0 when the snapshot does not hold the form.
func (s *Snapshot) FormID(form string) int32 {
	return int32(s.t.find(form, false) & tagID)
}

// WordID returns the ID of a normalized word, 0 when the snapshot does not
// hold it.
func (s *Snapshot) WordID(word string) int32 {
	return int32(s.t.find(word, true) & tagID)
}

// Word returns the word of an ID the vocabulary gave out before the snapshot
// was taken; "" for 0.
func (s *Snapshot) Word(id int32) string {
	return s.t.words[id]
}

// WordID is Current().WordID(word).
func WordID(word string) int32 {
	return int32(vocab.table.Load().find(word, true) & tagID)
}

// Word returns the word of an ID the vocabulary gave out; "" for 0.
func Word(id int32) string {
	return vocab.table.Load().words[id]
}

// Words returns the number of words the vocabulary holds: every ID it gave
// out is in [1, Words()].
func Words() int { return int(vocab.words.Load()) }

// Forms calls fn with every surface form the vocabulary holds and its word's
// ID, in no order, holding off writers meanwhile: what an index that outlives
// the process writes beside its IDs, to intern again when it is read.
func Forms(fn func(form string, id int32)) {
	vocab.mu.Lock()
	defer vocab.mu.Unlock()
	t := vocab.table.Load()
	var key [16]byte
	for i := range t.slots {
		sl := &t.slots[i]
		tag := sl.tag.Load()
		n := int(tag >> 32)
		switch {
		case tag == 0 || tag&tagWord != 0:
			continue
		case n > 16:
			fn(t.long[sl.k1], int32(tag&tagID))
			continue
		case n >= 8: // keyWords' inverse: the first and last eight bytes
			binary.LittleEndian.PutUint64(key[n-8:], sl.k1)
			binary.LittleEndian.PutUint64(key[:], sl.k0)
		case n >= 4:
			binary.LittleEndian.PutUint32(key[n-4:], uint32(sl.k0>>32))
			binary.LittleEndian.PutUint32(key[:], uint32(sl.k0))
		default:
			key[0], key[n/2], key[n-1] = byte(sl.k0), byte(sl.k0>>8), byte(sl.k0>>16)
		}
		fn(string(key[:n]), int32(tag&tagID))
	}
}

// Intern adds a surface form to the vocabulary, and its normalized word when
// new, and returns Normalize(form) and the word's ID, which a Snapshot's
// FormID will return from now on. It is for the write path only.
func Intern(form string) (norm string, id int32) { return vocab.intern(form) }

func (v *vocabulary) intern(form string) (norm string, id int32) {
	t := v.table.Load()
	if id = int32(t.find(form, false) & tagID); id != 0 {
		return t.words[id], id
	}
	norm = Normalize(form)
	v.mu.Lock()
	defer v.mu.Unlock()
	norm, id = v.wordLocked(norm)
	if v.table.Load().find(form, false) == 0 { // no other writer added it
		v.addLocked(strings.Clone(form), false, id)
	}
	return norm, id
}

// InternWord adds an already normalized word to the vocabulary and returns
// its ID. It is for the write path only.
func InternWord(word string) int32 { return vocab.internWord(word) }

func (v *vocabulary) internWord(word string) int32 {
	if id := int32(v.table.Load().find(word, true) & tagID); id != 0 {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	_, id := v.wordLocked(word)
	return id
}

// The label table gives each normalized concept label a process-wide ID,
// dense from 1, which the concept map's matches carry, so that the
// first-occurrence rule and the linking policies compare IDs, not strings.
// Like the vocabulary it only grows, and only on the write path (a label a
// concept map publishes, a policy's directive). Labels stay out of the
// vocabulary: they would grow the table every token probes.
var labels = struct {
	mu  sync.Mutex
	ids map[string]int32
}{ids: make(map[string]int32)}

// InternLabel returns the ID of a normalized label, adding it when new. It
// is for the write path only.
func InternLabel(label string) int32 {
	labels.mu.Lock()
	defer labels.mu.Unlock()
	id, ok := labels.ids[label]
	if !ok {
		id = int32(len(labels.ids) + 1)
		labels.ids[strings.Clone(label)] = id // not pinning the text it came from
	}
	return id
}

// Labels returns the number of labels the table holds.
func Labels() int {
	labels.mu.Lock()
	defer labels.mu.Unlock()
	return len(labels.ids)
}
