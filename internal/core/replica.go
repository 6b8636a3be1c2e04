// Replica maintenance: a follower node runs an Engine with Config.Store nil
// (so nothing it does appends to the local WAL — the replication layer owns
// that) and feeds it decoded WAL records from the primary. ApplyReplicated
// interprets the primary's table mutations and performs the same in-memory
// index maintenance the primary's write path performed, so the follower
// publishes the same concept-map/classification snapshots and serves the
// full read surface.
package core

import (
	"fmt"
	"maps"
	"strconv"

	"nnexus/internal/corpus"
	"nnexus/internal/storage"
	"nnexus/internal/wire"
)

// ApplyReplicated applies the mutations of one replicated WAL record (as
// decoded by storage.DecodeRecord) to the engine's in-memory state. Ops
// must be applied in record order; within a record they apply in batch
// order, mirroring the primary's own apply.
func (e *Engine) ApplyReplicated(ops []storage.BatchOp) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.Failed(); err != nil {
		return err
	}
	return e.applyReplicatedLocked(ops)
}

func (e *Engine) applyReplicatedLocked(ops []storage.BatchOp) error {
	defer e.seq.Add(1) // the record has published
	for i := range ops {
		op := &ops[i]
		switch op.Table {
		case tableEntries:
			if op.Delete {
				id, err := strconv.ParseInt(op.Key, 10, 64)
				if err != nil {
					return fmt.Errorf("core: replicated entry delete key %q: %w", op.Key, err)
				}
				// Removing an entry the follower never saw is a no-op
				// (idempotent resume).
				e.removeLocked(nil, id)
				continue
			}
			var entry corpus.Entry
			if err := decodeRecord(op, &entry); err != nil {
				return err
			}
			// Flags are not set by this write's walk — the primary's record
			// carries its flag transitions as tableInvalid ops — but rendered
			// outputs are dropped locally, because the primary drops them
			// even for entries already flagged.
			e.normalizeCorpus(&entry)
			if err := e.writeLocked(nil, &entry); err != nil {
				return err
			}
		case tableDomains:
			if op.Delete {
				e.dropDomainLocked(op.Key)
				continue
			}
			var d corpus.Domain
			if err := decodeRecord(op, &d); err != nil {
				return err
			}
			e.putDomain(&d)
		case tableMeta:
			if op.Key == "nextID" && !op.Delete {
				if n, err := strconv.ParseInt(string(op.Value), 10, 64); err == nil && n > e.nextID {
					e.nextID = n
				}
			}
		case tableInvalid:
			id, err := strconv.ParseInt(op.Key, 10, 64)
			if err != nil {
				return fmt.Errorf("core: replicated invalidation key %q: %w", op.Key, err)
			}
			if op.Delete {
				delete(e.invalid, id)
			} else {
				e.invalid[id] = e.seq.Load() + 1
				e.rendered.Invalidate(id)
			}
		default:
			// Unknown tables from a newer primary: state the engine does not
			// index. The storage layer still persists them; skip here.
		}
	}
	return nil
}

// JSONRecordError refuses an entry or domain record in the JSON form stores
// held before records took the wire codec's. Such a data directory, or a
// primary that still writes one, is not migrated: the corpus is re-imported.
type JSONRecordError struct {
	Table, Key string
}

func (e *JSONRecordError) Error() string {
	return fmt.Sprintf("core: %s record %q is in the JSON record format, which this version no longer reads; re-import the corpus (nnexus import)", e.Table, e.Key)
}

// decodeRecord reads the entry or domain record op puts.
func decodeRecord[T wire.Record](op *storage.BatchOp, v T) error {
	if len(op.Value) > 0 && op.Value[0] == '{' {
		return &JSONRecordError{Table: op.Table, Key: op.Key}
	}
	if err := wire.DecodeRecord(op.Value, v); err != nil {
		return fmt.Errorf("core: replicated %s record %q: %w", op.Table, op.Key, err)
	}
	return nil
}

// dropDomainLocked publishes a domain-table generation without name, and
// rederives the resolve state of the domain's entries, which now have none.
func (e *Engine) dropDomainLocked(name string) {
	next := maps.Clone(e.domainMap())
	delete(next, name)
	e.domains.Store(&next)
	e.rederiveLocked(func(s *storedEntry) bool { return s.Domain == name })
}

// ResetReplicated replaces the engine's whole state with a snapshot export
// (as produced by storage.Store.ExportState), the engine side of a follower
// snapshot bootstrap. Existing entries are retired through the normal index
// teardown — the concept map is RCU-published, so in-flight lock-free link
// scans keep observing a consistent snapshot throughout.
func (e *Engine) ResetReplicated(ops []storage.BatchOp) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.Failed(); err != nil {
		return err
	}
	for _, entry := range e.entries {
		e.unindexLocked(&entry.Entry)
	}
	clear(e.invalid)
	e.nextID = 1
	e.domains.Store(&map[string]*corpus.Domain{})
	return e.applyReplicatedLocked(ops)
}
