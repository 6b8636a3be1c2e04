package morph

// ProbeVocab is a vocabulary apart from the process's, which other tests
// fill, so that TestVocabProbeLength measures a table holding only the corpus
// it interns.
type ProbeVocab struct{ v *vocabulary }

func NewProbeVocab() ProbeVocab { return ProbeVocab{newVocabulary()} }

func (p ProbeVocab) Intern(form string)     { p.v.intern(form) }
func (p ProbeVocab) InternWord(word string) { p.v.internWord(word) }

// Keys returns how many keys the table holds and how many slots it has.
func (p ProbeVocab) Keys() (keys, slots int) {
	p.v.mu.Lock()
	defer p.v.mu.Unlock()
	return p.v.n, len(p.v.table.Load().slots)
}

// FormProbes returns how many slots a Snapshot's FormID reads to find form,
// walking from the slot the key hashes to; 0 when the form is not there.
func (p ProbeVocab) FormProbes(form string) int {
	t := p.v.table.Load()
	if t.find(form, false) == 0 {
		return 0
	}
	kind := uint64(uint32(len(form))) << 32
	k0, k1 := keyWords(form)
	mask := uint64(len(t.slots) - 1)
	for n, i := 1, t.hash(k0, k1, kind, form)&mask; ; n, i = n+1, (i+1)&mask {
		sl := &t.slots[i]
		tag := sl.tag.Load()
		if tag == 0 {
			panic("FormProbes: the walk from the key's hash missed a key find found")
		}
		if tag&^tagID == kind && sl.k0 == k0 && (len(form) <= 16 && sl.k1 == k1 || len(form) > 16 && t.long[sl.k1] == form) {
			return n
		}
	}
}
