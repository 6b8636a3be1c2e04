package core

import (
	"reflect"
	"slices"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
	"nnexus/internal/storage"
)

// Script opcodes of FuzzMaintenanceEquivalence; an opcode byte is taken
// modulo maintOps, each operand byte modulo whatever it selects from.
const (
	maintAdd = iota
	maintAddBatch
	maintUpdate
	maintRemove
	maintSetPolicy
	maintRelink
	maintLinkEntry
	maintOps
)

var (
	maintWords = []string{"graph", "plane", "space", "function", "even", "connected",
		"planar", "metric", "orthogonal", "number", "component"}
	maintClasses  = []string{"05C10", "05C40", "05C99", "03E20", "11A51", "51A05"}
	maintCorpora  = []string{"", "wiki"}
	maintPolicies = []string{"", "forbid *", "forbid * \nallow * from 05C40", "forbid even", "bogus directive"}
	maintDomains  = []string{"planetmath.org", "planetmath.org", "planetmath.org", "nowhere.example"}
)

// maintScript reads a fuzz input as a script; a script that runs out of
// bytes reads zeros.
type maintScript struct {
	data []byte
	pos  int
}

func (s *maintScript) more() bool { return s.pos < len(s.data) }

func (s *maintScript) next(mod int) int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := int(s.data[s.pos])
	s.pos++
	return b % mod
}

func (s *maintScript) word() string { return maintWords[s.next(len(maintWords))] }

// entry reads a twelve-byte entry description: corpus, domain, shape (bit 0:
// two-word title, bit 1: a synonym, bit 2: a byte that is not UTF-8, a
// control character and a blank synonym, which the record form does not
// carry), three label words, class, policy, four body words. Every operand
// is read whether or not it is used, so an op's width is fixed and seeds can
// be written by hand.
func (s *maintScript) entry() *corpus.Entry {
	e := &corpus.Entry{
		Corpus: maintCorpora[s.next(len(maintCorpora))],
		Domain: maintDomains[s.next(len(maintDomains))],
	}
	shape, w1, w2, w3 := s.next(8), s.word(), s.word(), s.word()
	e.Title = w1
	if shape&1 != 0 {
		e.Title += " " + w2
	}
	if shape&2 != 0 {
		e.Concepts = []string{w3}
	}
	e.Classes = []string{maintClasses[s.next(len(maintClasses))]}
	e.Policy = maintPolicies[s.next(len(maintPolicies))]
	e.Body = s.body()
	if shape&4 != 0 {
		e.Title += "\x01"
		e.Concepts = append(e.Concepts, "", w3+" \xff")
		e.Body = "bad \xff byte \x01 " + e.Body
	}
	return e
}

func (s *maintScript) body() string {
	return "about " + s.word() + " " + s.word() + " and " + s.word() + " " + s.word()
}

// maxObjectID returns the highest entry ID the engine has assigned or
// accepted (0 when empty).
func (e *Engine) maxObjectID() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.nextID - 1
}

// pick selects a stored entry ID; 0xFF selects an ID no entry holds.
func (s *maintScript) pick(e *Engine) int64 {
	ids := e.Entries()
	i := s.next(256)
	if i == 0xFF || len(ids) == 0 {
		return e.maxObjectID() + 3
	}
	return ids[i%len(ids)]
}

// maintPrimary is a primary engine over a replicating store, driven one
// mutation at a time with the record contract asserted on each: one
// successful mutation is one WAL record, a failed one is none.
type maintPrimary struct {
	t     *testing.T
	e     *Engine
	store *storage.Store
}

func newMaintPrimary(t *testing.T, dir string) *maintPrimary {
	store, err := storage.Open(dir, storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	p := &maintPrimary{t: t, e: e, store: store}
	p.mutate("AddDomain", 1, func() error {
		return e.AddDomain(corpus.Domain{
			Name: "planetmath.org", URLTemplate: "http://planetmath.org/?op=getobj&id={id}",
			Scheme: "msc", Priority: 1,
		})
	})
	fixture := fig1Entries()
	for i, src := range fixture {
		src.Domain = "planetmath.org"
		src.Body = "about the " + fixture[(i+5)%len(fixture)].Title
		p.mutate("AddEntry", 1, func() error { _, err := e.AddEntry(src); return err })
	}
	// The script starts from a fully linked collection.
	p.mutate("RelinkInvalidated", 1, func() error { _, err := e.RelinkInvalidated(); return err })
	return p
}

// mutate runs op and asserts the head advanced by want records when it
// succeeded and by none when it failed.
func (p *maintPrimary) mutate(name string, want uint64, op func() error) {
	p.t.Helper()
	before := p.store.ReplicationHead()
	err := op()
	if err != nil {
		want = 0
	}
	got := p.store.ReplicationHead() - before
	p.t.Logf("%s: err=%v, %d records", name, err, got)
	if got != want {
		p.t.Fatalf("%s appended %d WAL records, want %d", name, got, want)
	}
}

// run interprets the script against the primary.
func (p *maintPrimary) run(data []byte) {
	p.t.Helper()
	e := p.e
	s := &maintScript{data: data}
	for steps := 0; s.more() && steps < 48; steps++ {
		switch s.next(maintOps) {
		case maintAdd:
			entry := s.entry()
			p.mutate("AddEntry", 1, func() error { _, err := e.AddEntry(entry); return err })
		case maintAddBatch:
			batch := []*corpus.Entry{s.entry(), s.entry()}
			p.mutate("AddEntries", 1, func() error { _, err := e.AddEntries(batch); return err })
		case maintUpdate:
			// Eight bytes: ID, change bits, two title words, four body words.
			id, change := s.pick(e), s.next(8)
			title, body := s.word()+" "+s.word(), s.body()
			entry, ok := e.Entry(id)
			if !ok {
				entry = &corpus.Entry{ID: id, Domain: "planetmath.org"}
			}
			if change&1 != 0 || !ok { // label change
				entry.Title = title
			}
			if change&2 != 0 { // corpus move
				entry.Corpus = maintCorpora[(slices.Index(maintCorpora, entry.Corpus)+1)%len(maintCorpora)]
			}
			if change&4 != 0 {
				entry.Body = body
			}
			p.mutate("UpdateEntry", 1, func() error { return e.UpdateEntry(entry) })
		case maintRemove:
			id := s.pick(e)
			p.mutate("RemoveEntry", 1, func() error { return e.RemoveEntry(id) })
		case maintSetPolicy:
			id, text := s.pick(e), maintPolicies[s.next(len(maintPolicies))]
			p.mutate("SetPolicy", 1, func() error { return e.SetPolicy(id, text) })
		case maintRelink:
			// One record per chunk of up to relinkChunk flagged entries.
			chunks := (len(e.Invalidated()) + relinkChunk - 1) / relinkChunk
			p.mutate("RelinkInvalidated", uint64(chunks), func() error { _, err := e.RelinkInvalidated(); return err })
		case maintLinkEntry:
			// Clearing a flag is a record; a read of a valid entry is not.
			id := s.pick(e)
			var want uint64
			if slices.Contains(e.Invalidated(), id) {
				want = 1
			}
			p.mutate("LinkEntry", want, func() error { _, err := e.LinkEntry(id, LinkOptions{}); return err })
		}
	}
}

// maintState is everything FuzzMaintenanceEquivalence compares.
type maintState struct {
	IDs         []int64
	Entries     []corpus.Entry
	Invalidated []int64
	Domains     []corpus.Domain
	Corpora     []string
	Usage       map[string]int // entries per corpus
	Concepts    int
	MaxID       int64
	Linked      []Result
}

// stateOf captures an engine's observable state. Corpora lists only the
// corpora holding entries unless emptyCorpora is set: a live engine keeps an
// emptied namespace, a rebuild from a snapshot has no entry naming it.
func stateOf(t *testing.T, e *Engine, emptyCorpora bool) maintState {
	t.Helper()
	st := maintState{
		IDs:         e.Entries(),
		Invalidated: e.Invalidated(),
		Usage:       map[string]int{},
		Concepts:    e.NumConcepts(),
		MaxID:       e.maxObjectID(),
	}
	for _, name := range e.Domains() {
		d, _ := e.Domain(name)
		st.Domains = append(st.Domains, *d)
	}
	link := func(text string, opts LinkOptions) {
		res, err := e.LinkText(text, opts)
		if err != nil {
			t.Fatal(err)
		}
		st.Linked = append(st.Linked, *res)
	}
	for _, id := range st.IDs {
		entry, ok := e.Entry(id)
		if !ok {
			t.Fatalf("entry %d listed but not stored", id)
		}
		st.Entries = append(st.Entries, *entry)
		st.Usage[entry.Corpus]++
		link(entry.Body, LinkOptions{SourceCorpus: entry.Corpus, SourceClasses: entry.Classes, ExcludeObject: id})
		link(entry.Body, LinkOptions{SourceClasses: entry.Classes, TargetCorpora: []string{"wiki", "default"}})
	}
	for _, name := range e.Corpora() {
		if st.Usage[name] > 0 || emptyCorpora {
			st.Corpora = append(st.Corpora, name)
		}
	}
	return st
}

func requireSameState(t *testing.T, what string, want, got maintState) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			t.Errorf("%s diverged from the primary on %s:\nprimary: %+v\n%s: %+v",
				what, w.Type().Field(i).Name, w.Field(i).Interface(), what, g.Field(i).Interface())
		}
	}
	t.FailNow()
}

func newStoreless(t *testing.T) *Engine {
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// replay feeds a storeless engine the primary's records [from, to].
func replay(t *testing.T, e *Engine, records [][]byte) {
	t.Helper()
	for i, rec := range records {
		ops, err := storage.DecodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyReplicated(ops); err != nil {
			t.Fatalf("replay of record %d: %v", i+1, err)
		}
	}
}

// Seed scripts, one op per line, a batch's second entry on its own
// (operand widths: entry 12, update 8).
var maintSeeds = [][]byte{
	{},
	{ // adds in both corpora that flag fixture entries, a relink, link-entry of a valid entry
		maintAdd, 0, 0, 1, 0, 1, 0, 2, 0, 3, 3, 5, 6,
		maintAdd, 1, 0, 2, 2, 0, 4, 4, 3, 0, 1, 7, 2,
		maintRelink,
		maintLinkEntry, 2,
	},
	{ // a batch naming an unknown domain is rejected whole; a good batch is one record
		maintAddBatch, 0, 0, 0, 5, 0, 0, 0, 0, 1, 2, 3, 4,
		0, 3, 0, 6, 0, 0, 1, 0, 4, 3, 2, 1,
		maintAddBatch, 0, 0, 1, 7, 2, 0, 3, 1, 0, 0, 1, 1,
		1, 1, 3, 0, 2, 9, 2, 2, 3, 6, 8, 10,
		maintRelink,
	},
	{ // update: label change, corpus move and back, body change; update of an unknown ID
		maintUpdate, 1, 1, 8, 3, 0, 0, 0, 0,
		maintUpdate, 4, 2, 0, 0, 0, 0, 0, 0,
		maintUpdate, 4, 7, 1, 0, 3, 2, 0, 4,
		maintUpdate, 0xFF, 0, 1, 1, 1, 1, 1, 1,
		maintRelink,
	},
	{ // remove (also of an unknown ID), set-policy: good, bogus, cleared; relink twice
		maintRemove, 4,
		maintRemove, 0xFF,
		maintSetPolicy, 3, 1,
		maintSetPolicy, 3, 4,
		maintSetPolicy, 3, 0,
		maintRelink,
		maintRelink,
	},
	{ // the newest entry removed, then an add: its ID is not reused, and the high-water mark survives
		maintRemove, 15,
		maintAdd, 1, 0, 1, 0, 1, 5, 0, 0, 1, 1, 0, 1,
		maintLinkEntry, 15,
		maintRelink,
	},
	{ // link-entry: valid entry, an entry a write just flagged, twice, an unknown ID
		maintLinkEntry, 1,
		maintAdd, 0, 0, 0, 1, 0, 0, 5, 0, 0, 0, 0, 0,
		maintLinkEntry, 1,
		maintLinkEntry, 1,
		maintLinkEntry, 0xFF,
	},
	{ // text the record form does not carry: an add, a batch, an update of one of them
		maintAdd, 0, 0, 6, 0, 1, 2, 0, 0, 1, 2, 3, 4,
		maintAddBatch, 1, 0, 5, 3, 5, 6, 1, 0, 0, 5, 2, 1,
		0, 0, 4, 1, 7, 8, 2, 0, 6, 1, 0, 1,
		maintUpdate, 0xFE, 4, 0, 0, 2, 5, 6, 7,
		maintRelink,
	},
}

// FuzzMaintenanceEquivalence is the write-side twin of
// TestEntryPointEquivalence: whatever sequence of mutations a primary runs,
// every other way of arriving at its state — a follower replaying its WAL
// records, a follower bootstrapped from its snapshot export, and (on the
// seed scripts, which is where the disk is worth its time) the same engine
// reopened from its own store, once with its store closed under it, which
// rebuilds the invalidation indexes, and once closed cleanly, which reads
// the ones it saved — ends in the same observable state, and each mutation
// was exactly one WAL record on the way.
func FuzzMaintenanceEquivalence(f *testing.F) {
	for _, seed := range maintSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newMaintPrimary(t, "")
		p.run(data)
		want := stateOf(t, p.e, true)

		records, head, err := p.store.ReadRecords(1, 0)
		if err != nil || uint64(len(records)) != head {
			t.Fatalf("ReadRecords = %d records, head %d, %v", len(records), head, err)
		}
		follower := newStoreless(t)
		replay(t, follower, records)
		requireSameState(t, "log-replay follower", want, stateOf(t, follower, true))

		// The snapshot follower holds half the history when the snapshot
		// arrives, so the bootstrap has state to tear down.
		want = stateOf(t, p.e, false)
		bootstrapped := newStoreless(t)
		replay(t, bootstrapped, records[:len(records)/2])
		ops, _, _, err := p.store.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if err := bootstrapped.ResetReplicated(ops); err != nil {
			t.Fatal(err)
		}
		requireSameState(t, "snapshot follower", want, stateOf(t, bootstrapped, false))

		if !slices.ContainsFunc(maintSeeds, func(seed []byte) bool { return slices.Equal(seed, data) }) {
			return
		}
		dir := t.TempDir()
		disk := newMaintPrimary(t, dir)
		disk.run(data)
		if err := disk.store.Close(); err != nil {
			t.Fatal(err)
		}
		for _, leg := range []string{"reopened primary", "cleanly reopened primary"} {
			store, err := storage.Open(dir, storage.WithReplication())
			if err != nil {
				t.Fatal(err)
			}
			reopened, err := NewEngine(Config{Scheme: classification.SampleMSC(10), Store: store})
			if err != nil {
				t.Fatal(err)
			}
			if reopened.indexesRead != (leg == "cleanly reopened primary") {
				t.Fatalf("%s: read the saved indexes: %v", leg, reopened.indexesRead)
			}
			requireSameState(t, leg, want, stateOf(t, reopened, false))
			if err := reopened.Close(); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
