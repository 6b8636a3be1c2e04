package morph

import (
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
var vocab = func() *vocabulary {
	seed := maphash.MakeSeed()
	v := new(vocabulary)
	v.table.Store(newVocabTable(1<<10, [2]uint64{maphash.String(seed, "0"), maphash.String(seed, "1")}))
	return v
}()

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

// hash hashes a key of n bytes from its words, and from its middle, s[8:n-8],
// when it is longer than sixteen bytes, under the process's random seed.
func (t *vocabTable) hash(k0, k1 uint64, n int, s string) uint64 {
	h := mix(k0^t.seed[0], k1^t.seed[1]^uint64(n))
	for i := 8; i < n-8; i += 8 {
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
	h := mix(k0^t.seed[0], k1^t.seed[1]^uint64(len(key)))
	if len(key) > 16 {
		h = t.hash(k0, k1, len(key), key)
	}
	want := uint64(uint32(len(key))) << 32
	if word {
		want |= tagWord
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
			n, s, k1 := int(tag>>32), "", sl.k1
			if n > 16 {
				s = t.long[k1]
				_, k1 = keyWords(s)
			}
			grown.place(t.hash(sl.k0, k1, n, s), sl.k0, sl.k1, tag)
		}
		v.table.Store(grown)
		t = grown
	}
	if word {
		t.words[id] = key
	}
	k0, k1 := keyWords(key)
	h := t.hash(k0, k1, len(key), key)
	if len(key) > 16 {
		t.long[v.nLong] = key
		k1 = uint64(v.nLong)
		v.nLong++
	}
	tag := uint64(uint32(len(key)))<<32 | uint64(id)
	if word {
		tag |= tagWord
	}
	t.place(h, k0, k1, tag)
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

// FormID is Current().FormID(form).
func FormID(form string) int32 {
	return int32(vocab.table.Load().find(form, false) & tagID)
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

// Intern adds a surface form to the vocabulary, and its normalized word when
// new, and returns Normalize(form) and the word's ID, which FormID will
// return from now on. It is for the write path only.
func Intern(form string) (norm string, id int32) {
	if id := FormID(form); id != 0 {
		return Word(id), id
	}
	norm = Normalize(form)
	vocab.mu.Lock()
	defer vocab.mu.Unlock()
	norm, id = vocab.wordLocked(norm)
	if vocab.table.Load().find(form, false) == 0 { // no other writer added it
		vocab.addLocked(strings.Clone(form), false, id)
	}
	return norm, id
}

// InternWord adds an already normalized word to the vocabulary and returns
// its ID. It is for the write path only.
func InternWord(word string) int32 {
	if id := WordID(word); id != 0 {
		return id
	}
	vocab.mu.Lock()
	defer vocab.mu.Unlock()
	_, id := vocab.wordLocked(word)
	return id
}
