package core

// The maintenance pipeline (paper §2.5, Fig 6), each stage exactly once:
//
//	admit → apply → invalidate → commit
//
// Every mutation entry point is a composition of these stage functions
// (DESIGN.md, "The maintenance pipeline"): the primary's writes run all
// four around a changeSet; a follower's ApplyReplicated runs apply and
// invalidate per replicated op with no changeSet; crash recovery is
// ApplyReplicated over the engine's own store export. commitLocked is the
// only caller of the store's write methods in this package, and it writes
// one record per mutation.

import (
	"fmt"
	"slices"
	"strconv"

	"nnexus/internal/conceptmap"
	"nnexus/internal/corpus"
	"nnexus/internal/policy"
	"nnexus/internal/render"
	"nnexus/internal/storage"
	"nnexus/internal/wire"
)

// changeSet is what one mutation changed on the node that originated it.
// commitLocked turns it into ONE storage batch — one WAL record, one fsync,
// one replication offset — so a mutation's entry ops, its ID high-water mark
// and the invalidation flags it set survive a crash together or not at all.
// A nil *changeSet marks a replayed mutation (follower apply, snapshot
// bootstrap, crash recovery): its flags arrive as ops of the record being
// replayed and nothing is committed.
type changeSet struct {
	domain  *corpus.Domain
	entries []*corpus.Entry // written: added, replaced, policy changed
	removed []int64
	flagged []int64 // invalidation flags the mutation's walk set
	cleared []int64 // invalidation flags a relink cleared
}

// admitLocked is the admission stage: the entry's corpus is normalized, its
// strings put into the form its record decodes to (so that a reopen and a
// follower hold the text this node holds), its shape validated, its domain
// registered and its policy parseable. Nothing else has changed when it
// fails.
func (e *Engine) admitLocked(entry *corpus.Entry) error {
	e.normalizeCorpus(entry)
	wire.Canonical(entry)
	if err := entry.Validate(); err != nil {
		return err
	}
	if _, ok := e.domainMap()[entry.Domain]; !ok {
		return fmt.Errorf("core: unknown domain %q (AddDomain first)", entry.Domain)
	}
	_, err := parsePolicy(entry.Policy)
	return err
}

// parsePolicy parses an entry's policy text; an entry without one has a nil
// policy, which permits every link.
func parsePolicy(text string) (*policy.Policy, error) {
	if text == "" {
		return nil, nil
	}
	return policy.Parse(text)
}

// storedEntry is one entry as the engine's entry table holds it: the entry,
// and beside it what the resolve stage needs of it, derived at write time so
// that a link reads it off the captured view instead of rebuilding it per
// candidate. A published storedEntry is never mutated: every write and every
// rederivation replaces it, so lock-free readers only see whole states.
type storedEntry struct {
	corpus.Entry
	// policy is Entry.Policy parsed (nil without one): the entry's policy
	// text is the one source of truth, and this is its one parse.
	policy *policy.Policy
	// domain is the entry's domain in the generation the state was derived
	// from; nil while the domain is not registered.
	domain *corpus.Domain
	// classes are Entry.Classes translated into the canonical scheme (by
	// the domain's scheme and the registered mappers), as scheme node
	// indexes; classes the scheme does not know are left out.
	classes []int32
	// url is the entry's link destination under its domain's URL template,
	// and tag the HTML open tag of a link to it, escaped once here instead
	// of on every link of every read.
	url, tag string
	// seq is the write sequence of the mutation that stored the entry.
	seq uint64
}

// newStored builds the entry table's record of entry: a copy of it and its
// derived resolve state. Only a policy that does not parse fails it.
func (e *Engine) newStored(entry *corpus.Entry) (*storedEntry, error) {
	pol, err := parsePolicy(entry.Policy)
	if err != nil {
		return nil, err
	}
	s := &storedEntry{Entry: *entry, policy: pol}
	e.derive(s)
	return s, nil
}

// derive computes the part of s's resolve state that depends on the domain
// table and the mappers. Those change only by putDomain, dropDomainLocked
// and RegisterMapper, which rederive the entries they affect.
func (e *Engine) derive(s *storedEntry) {
	s.domain = e.domainMap()[s.Domain]
	classes, to := s.Classes, e.scheme.Name()
	s.url, s.tag = "", ""
	if d := s.domain; d != nil {
		if d.Scheme != "" && d.Scheme != to {
			classes = e.mappers.Translate(d.Scheme, classes, to)
		}
		s.url = d.URL(s.ExternalID, s.Title)
		s.tag = render.OpenTag(s.url, s.Title)
	}
	s.classes = e.scheme.AppendIndexes(nil, classes)
}

// rederiveLocked replaces every stored entry that affected selects with a
// copy whose resolve state is derived anew, and drops every rendering: any of
// them may link to an affected entry. Callers hold e.mu, and advance the
// write sequence before they release it.
func (e *Engine) rederiveLocked(affected func(*storedEntry) bool) {
	e.rederived = e.seq.Load() + 1
	e.rendered.Purge()
	for id, s := range e.entries {
		if affected(s) {
			next := *s
			e.derive(&next)
			e.entries[id] = &next
		}
	}
}

// indexLocked is the apply stage of an entry write: it stores the entry
// with its resolve state, (re)indexes it in its corpus's concept map,
// invalidation index and usage counters, and ratchets nextID past it. The
// entry's corpus must already be normalized. An entry moving corpora (UpdateEntry with a new corpus ID)
// is removed from its old namespace's indexes first.
func (e *Engine) indexLocked(entry *corpus.Entry) error {
	stored, err := e.newStored(entry)
	if err != nil {
		return err
	}
	stored.seq = e.seq.Load() + 1
	e.rendered.Invalidate(entry.ID)
	old := e.entries[entry.ID]
	ns := e.nsEnsureLocked(entry.Corpus)
	e.entries[entry.ID] = stored
	if old != nil && old.Corpus != entry.Corpus {
		oldNS := e.nsEnsureLocked(old.Corpus)
		e.writerLocked(oldNS).Remove(conceptmap.ObjectID(entry.ID))
		oldNS.inv.Remove(entry.ID)
	}
	e.writerLocked(ns).Add(conceptmap.ObjectID(entry.ID), entry.Labels())
	if !e.replaying { // load fills the indexes after its replay
		ns.inv.AddText(entry.ID, entry.Body)
	}
	if entry.ID >= e.nextID {
		e.nextID = entry.ID + 1
	}
	return nil
}

// unindexLocked is the apply stage of a removal: the teardown of everything
// indexLocked built, plus the entry's own invalidation flag and rendering.
func (e *Engine) unindexLocked(entry *corpus.Entry) {
	id := entry.ID
	delete(e.entries, id)
	delete(e.invalid, id)
	e.rendered.Invalidate(id)
	ns := e.nsEnsureLocked(entry.Corpus)
	e.writerLocked(ns).Remove(conceptmap.ObjectID(id))
	ns.inv.Remove(id)
}

// writerLocked returns the concept-map generation the running mutation
// writes in ns, opening it on the mutation's first change there. A mutation
// may change several namespaces (an entry moving corpora); each gets one
// generation, published by publishLocked.
func (e *Engine) writerLocked(ns *namespace) *conceptmap.Writer {
	if ns.w == nil {
		ns.w = ns.cmap.Begin()
	}
	return ns.w
}

// publishLocked ends a mutation, however it ends — committed, refused by the
// store, or stopped by an error partway: every concept-map generation it
// opened is published, so a reader sees the whole mutation or none of it and
// each map's compiler is woken once, and then the write sequence advances.
// The maps publish first, because a link reads the sequence before it pins:
// one that pins a generation holding this mutation must not have read a
// sequence claiming that it did.
func (e *Engine) publishLocked() {
	for _, n := range e.nsMap() {
		if n.w != nil {
			n.w.Publish()
			n.w = nil
		}
	}
	e.seq.Add(1)
}

// invalidateLocked is the invalidation stage: one walk over the union of a
// mutation's old and new labels, visiting every entry whose text may invoke
// one of them (except the originating entry). The rendered output of each
// is dropped; with a changeSet — on the node that originated the mutation —
// each one not yet flagged is also flagged for re-linking and the flag joins
// the changeSet. Every flag raised or already standing is stamped with the
// mutation's write sequence (see Engine.seq).
//
// Every corpus namespace's invalidation index is consulted: an entry in
// corpus A whose body mentions the label may link against corpus B through
// a cross-corpus target policy, so the safe set is the union (a cheap
// superset — extra flags only cost a relink). The per-corpus telemetry
// label records which namespace the invalidated entry belongs to.
func (e *Engine) invalidateLocked(ch *changeSet, except int64, old, cur []string) {
	if ch == nil && e.rendered.Len() == 0 && len(e.invalid) == 0 {
		// Nothing to flag, nothing rendered to drop and no standing flag to
		// re-stamp: a replay into a cold engine (recovery, snapshot
		// bootstrap, which load the flags after the entries) skips the
		// lookups.
		return
	}
	namespaces := e.nsMap()
	walk := func(label string) {
		for _, n := range namespaces {
			for _, id := range n.inv.Lookup(label) {
				if id == except {
					continue
				}
				e.rendered.Invalidate(id)
				// Stamped anew on a replica too: a relink that pinned
				// before this write must not clear the flag.
				_, flagged := e.invalid[id]
				if flagged || ch != nil {
					e.invalid[id] = e.seq.Load() + 1
				}
				if flagged || ch == nil {
					continue
				}
				ch.flagged = append(ch.flagged, id)
				e.tel.corpusInvalidations(n.name).Inc()
			}
		}
	}
	for _, label := range old {
		walk(label)
	}
	for _, label := range cur {
		if !slices.Contains(old, label) {
			walk(label)
		}
	}
}

// writeLocked applies one entry write and invalidates for it: the entry is
// (re)indexed, then every entry mentioning its previous or its new labels is
// visited once. Both label sets matter: a replaced entry stops defining the
// old ones and starts defining the new ones.
func (e *Engine) writeLocked(ch *changeSet, entry *corpus.Entry) error {
	var oldLabels []string
	if old := e.entries[entry.ID]; old != nil {
		oldLabels = old.Labels()
	}
	if err := e.indexLocked(entry); err != nil {
		return fmt.Errorf("core: index entry %d: %w", entry.ID, err)
	}
	e.invalidateLocked(ch, entry.ID, oldLabels, entry.Labels())
	if ch != nil {
		ch.entries = append(ch.entries, entry)
	}
	return nil
}

// storeLocked is the apply → invalidate → commit tail of every admitted
// entry write: one record however many entries the mutation carries.
func (e *Engine) storeLocked(entries ...*corpus.Entry) error {
	var ch changeSet
	for _, entry := range entries {
		if err := e.writeLocked(&ch, entry); err != nil {
			e.publishLocked() // what it applied stands, as a replay's does
			return err
		}
	}
	return e.commitLocked(&ch)
}

// removeLocked invalidates for and applies one entry removal, reporting
// whether the entry existed. The walk precedes the teardown: Lookup answers
// with the longest indexed prefix of a label, and while the entry's own
// postings are still indexed that is the label itself, not a shorter,
// wider prefix.
func (e *Engine) removeLocked(ch *changeSet, id int64) bool {
	entry, ok := e.entries[id]
	if !ok {
		return false
	}
	e.invalidateLocked(ch, id, entry.Labels(), nil)
	e.unindexLocked(&entry.Entry)
	if ch != nil {
		ch.removed = append(ch.removed, id)
	}
	return true
}

// commitLocked is the commit stage and the only code in this package that
// writes to the store: the whole changeSet goes down as one atomic batch.
// It runs after apply, so the record carries exactly the flags the walk set,
// and publishes the mutation before the store sees it, so that a refused
// batch leaves no concept-map writer open. The first batch the store refuses
// stops the engine (ErrFailed): nothing undoes the apply, so from then on
// every call is refused until a reopen replays the log.
func (e *Engine) commitLocked(ch *changeSet) error {
	e.publishLocked()
	if e.store == nil {
		return nil
	}
	ops := make([]storage.BatchOp, 0, 1+len(ch.entries)+2*len(ch.removed)+len(ch.flagged)+len(ch.cleared))
	// A value is a window of rec; an append that moves rec leaves the
	// windows already taken on the old array, whose bytes do not change.
	rec := e.records[:0]
	if ch.domain != nil {
		rec = wire.AppendRecord(rec, ch.domain)
		ops = append(ops, storage.BatchOp{Table: tableDomains, Key: ch.domain.Name, Value: rec})
	}
	for _, entry := range ch.entries {
		from := len(rec)
		rec = wire.AppendRecord(rec, entry)
		ops = append(ops, storage.BatchOp{Table: tableEntries, Key: entryKey(entry.ID), Value: rec[from:]})
	}
	if cap(rec) <= 1<<20 { // a 256-entry import batch's fits, a 32 MiB one's goes
		e.records = rec
	}
	if len(ch.entries) > 0 {
		ops = append(ops, storage.BatchOp{
			Table: tableMeta, Key: "nextID",
			Value: []byte(strconv.FormatInt(e.nextID, 10)),
		})
	}
	for _, id := range ch.removed {
		ops = append(ops,
			storage.BatchOp{Table: tableEntries, Key: entryKey(id), Delete: true},
			storage.BatchOp{Table: tableInvalid, Key: strconv.FormatInt(id, 10), Delete: true})
	}
	for _, id := range ch.flagged {
		ops = append(ops, storage.BatchOp{Table: tableInvalid, Key: strconv.FormatInt(id, 10), Value: []byte("1")})
	}
	for _, id := range ch.cleared {
		ops = append(ops, storage.BatchOp{Table: tableInvalid, Key: strconv.FormatInt(id, 10), Delete: true})
	}
	if err := e.store.PutBatch(ops); err != nil {
		err = fmt.Errorf("%w: %w", ErrFailed, err)
		e.failed.Store(err)
		return err
	}
	return nil
}
