package core

import (
	"encoding/binary"

	"nnexus/internal/invindex"
)

// indexFile holds every namespace's invalidation index as the engine's last
// clean Close left it, beside the store.
const indexFile = "invindex.dat"

// indexStamp is the store position an index file is saved at and read back
// for: a write after the save moves the head, and an open that cannot vouch
// for the log moves the epoch.
func indexStamp(head, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, head), epoch)
}

// saveIndexesLocked writes every namespace's invalidation index beside the
// store, stamped with the store's position. The caller holds e.mu, so no
// write of the engine's moves it meanwhile.
func (e *Engine) saveIndexesLocked() error {
	names := e.Corpora()
	indexes := make([]*invindex.Index, len(names))
	for i, name := range names {
		indexes[i] = e.nsFor(name).inv
	}
	stamp := indexStamp(e.store.ReplicationHead(), e.store.ReplicationEpoch())
	return e.store.SaveState(indexFile, func(dst []byte) []byte {
		return invindex.AppendFile(dst, stamp, names, indexes)
	})
}

// readIndexes returns the invalidation indexes the last clean Close saved, if
// it saved them at head and epoch, and nil otherwise. It removes their file
// whatever it held, so that a crash from here on cannot meet it stale.
func (e *Engine) readIndexes(head, epoch uint64) map[string]*invindex.Index {
	data, err := e.store.LoadState(indexFile)
	if err != nil || data == nil || e.store.RemoveState(indexFile) != nil {
		return nil
	}
	// Whatever LoadFile refuses (another version or stamp, a bad checksum) is
	// built from the entries instead.
	indexes, _ := invindex.LoadFile(data, indexStamp(head, epoch), indexOptions...)
	return indexes
}

// fillIndexes gives each namespace the invalidation index read for it, or
// builds it from its entries' texts in the replay's order, by ID.
func (e *Engine) fillIndexes(read map[string]*invindex.Index) {
	for _, id := range sortedKeys(e.entries) {
		if s := e.entries[id]; read[s.Corpus] == nil {
			e.nsFor(s.Corpus).inv.AddText(id, s.Body)
		}
	}
	for name, n := range e.nsMap() {
		if inv := read[name]; inv != nil {
			n.inv = inv
		}
	}
	e.indexesRead = read != nil
}
