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
	"nnexus/internal/storage"
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
// shape validated, its domain registered and its policy parseable. Nothing
// has changed when it fails.
func (e *Engine) admitLocked(entry *corpus.Entry) error {
	e.normalizeCorpus(entry)
	if err := entry.Validate(); err != nil {
		return err
	}
	if _, ok := e.domainMap()[entry.Domain]; !ok {
		return fmt.Errorf("core: unknown domain %q (AddDomain first)", entry.Domain)
	}
	if entry.Policy != "" {
		if _, err := policy.Parse(entry.Policy); err != nil {
			return err
		}
	}
	return nil
}

// indexLocked is the apply stage of an entry write: it (re)indexes the entry
// in its corpus's concept map and invalidation index, the policy table and
// the usage counters, and ratchets nextID past it. In shard mode only the
// ring slice's labels are indexed, so the concept map and the automaton
// compiled from it stay ~1/N-sized. The entry's corpus must already be
// normalized. An entry moving corpora (UpdateEntry with a new corpus ID)
// is removed from its old namespace's indexes first.
func (e *Engine) indexLocked(entry *corpus.Entry) error {
	e.rendered.Invalidate(entry.ID)
	old := e.entries[entry.ID]
	ns := e.nsEnsureLocked(entry.Corpus)
	copied := *entry
	e.entries[entry.ID] = &copied
	if old != nil {
		oldNS := e.nsEnsureLocked(old.Corpus)
		oldNS.entryCount.Add(-1)
		oldNS.byteCount.Add(-EntrySize(old))
		if old.Corpus != entry.Corpus {
			oldNS.cmap.RemoveObject(conceptmap.ObjectID(entry.ID))
			oldNS.inv.Remove(entry.ID)
		}
	}
	ns.cmap.AddObject(conceptmap.ObjectID(entry.ID), e.ownedLabels(entry.Labels()))
	ns.inv.AddText(entry.ID, entry.Body)
	ns.entryCount.Add(1)
	ns.byteCount.Add(EntrySize(entry))
	if entry.ID >= e.nextID {
		e.nextID = entry.ID + 1
	}
	if entry.Policy == "" {
		e.pol.Remove(entry.ID)
		return nil
	}
	return e.pol.Set(entry.ID, entry.Policy)
}

// unindexLocked is the apply stage of a removal: the teardown of everything
// indexLocked built, plus the entry's own invalidation flag and rendering.
func (e *Engine) unindexLocked(entry *corpus.Entry) {
	id := entry.ID
	delete(e.entries, id)
	delete(e.invalid, id)
	e.rendered.Invalidate(id)
	ns := e.nsEnsureLocked(entry.Corpus)
	ns.cmap.RemoveObject(conceptmap.ObjectID(id))
	ns.inv.Remove(id)
	ns.entryCount.Add(-1)
	ns.byteCount.Add(-EntrySize(entry))
	e.pol.Remove(id)
}

// invalidateLocked is the invalidation stage: one walk over the union of a
// mutation's old and new labels, visiting every entry whose text may invoke
// one of them (except the originating entry). The rendered output of each
// is dropped; with a changeSet — on the node that originated the mutation —
// each one not yet flagged is also flagged for re-linking and the flag joins
// the changeSet. In shard mode only owned labels are consulted: a label
// change belongs to the shard that owns the label's ring slice (each shard
// invalidates its own projections; see DESIGN.md for the cross-shard
// invalidation gap).
//
// Every corpus namespace's invalidation index is consulted: an entry in
// corpus A whose body mentions the label may link against corpus B through
// a cross-corpus target policy, so the safe set is the union (a cheap
// superset — extra flags only cost a relink). The per-corpus telemetry
// label records which namespace the invalidated entry belongs to.
func (e *Engine) invalidateLocked(ch *changeSet, except int64, old, cur []string) {
	if ch == nil && e.rendered.Len() == 0 {
		// Nothing to flag and nothing rendered to drop: a replay into a cold
		// engine (recovery, snapshot bootstrap) skips the lookups.
		return
	}
	namespaces := e.nsMap()
	walk := func(label string) {
		if !e.ownsLabel(label) {
			return
		}
		for _, n := range namespaces {
			for _, id := range n.inv.Lookup(label) {
				if id == except {
					continue
				}
				e.rendered.Invalidate(id)
				if ch == nil || e.invalid[id] {
					continue
				}
				e.invalid[id] = true
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
	e.unindexLocked(entry)
	if ch != nil {
		ch.removed = append(ch.removed, id)
	}
	return true
}

// commitLocked is the commit stage and the only code in this package that
// writes to the store: the whole changeSet goes down as one atomic batch.
// It runs after apply, so the record carries exactly the flags the walk set.
func (e *Engine) commitLocked(ch *changeSet) error {
	if e.store == nil {
		return nil
	}
	ops := make([]storage.BatchOp, 0, 1+len(ch.entries)+2*len(ch.removed)+len(ch.flagged)+len(ch.cleared))
	if ch.domain != nil {
		data, err := encodeJSON(ch.domain)
		if err != nil {
			return err
		}
		ops = append(ops, storage.BatchOp{Table: tableDomains, Key: ch.domain.Name, Value: data})
	}
	for _, entry := range ch.entries {
		data, err := entry.Encode()
		if err != nil {
			return err
		}
		ops = append(ops, storage.BatchOp{Table: tableEntries, Key: entryKey(entry.ID), Value: data})
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
	return e.store.PutBatch(ops)
}
