// Replication support: the store numbers every applied WAL record with a
// monotonically increasing offset and, when WithReplication is enabled,
// retains the encoded record bodies in an in-memory replication log so a
// primary can stream them to followers (see internal/replication).
//
// Offsets are 1-based counts of records ever applied. Records at offsets
// <= the replication base are only reachable through a snapshot export:
// Compact moves the base to the current head and drops the retained log.
//
// The log is fed strictly at apply time — after the record is durable in
// sync mode — so a follower can never observe a record whose writer was
// told it failed. Because divergence between the on-disk WAL and the
// streamed history is still possible (a failed fsync round whose rollback
// also fails, or a crash that loses buffered-but-streamed records in
// non-sync mode), the store maintains a replication epoch: any open that
// cannot prove the WAL matches what was last streamed bumps the epoch,
// which forces followers to re-bootstrap from a snapshot export.
package storage

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

const (
	// replStateName holds the replication epoch and, after a clean Close, the
	// cleanFlag line that lets the next Open keep it.
	replStateName = "repl.epoch"
	cleanFlag     = "clean"

	// defaultReplRetain bounds the in-memory replication log. Followers
	// lagging more than this many records re-bootstrap from a snapshot
	// export instead of streaming the backlog.
	defaultReplRetain = 1 << 16
)

// ErrCompacted reports that the requested replication offsets are no longer
// retained in the log; the follower must re-bootstrap from a snapshot
// export (ExportState).
var ErrCompacted = errors.New("storage: replication log compacted")

// ErrNoReplication reports that the store was opened without
// WithReplication.
var ErrNoReplication = errors.New("storage: replication not enabled")

// ErrOffsetGap reports that a replicated record would skip offsets: the
// follower is missing records between its head and the record's offset and
// must re-fetch from head+1 (or re-bootstrap).
var ErrOffsetGap = errors.New("storage: replicated record skips offsets")

// replState is the primary-side replication log. All fields are protected
// by Store.mu.
type replState struct {
	base     uint64   // offset of the newest record NOT retained in log
	log      [][]byte // encoded bodies of records base+1 .. head
	retain   int      // max records kept in log (0 = unbounded)
	epoch    uint64
	poisoned bool // on-disk WAL may diverge from the streamed history
	watchers map[chan struct{}]struct{}
}

// WithReplication retains applied WAL record bodies in memory so the store
// can serve them to replication subscribers via ReadRecords. The log keeps
// at most a bounded number of recent records (see WithReplicationRetain);
// Compact additionally drops the whole retained log, since the compacted
// snapshot supersedes it.
func WithReplication() Option {
	return func(s *Store) {
		s.repl = &replState{
			retain:   defaultReplRetain,
			watchers: make(map[chan struct{}]struct{}),
		}
	}
}

// WithReplicationRetain overrides how many recent record bodies the
// replication log keeps in memory (n <= 0 means unbounded). Followers whose
// offset falls behind the retained window re-bootstrap from a snapshot
// export. Must appear after WithReplication in the option list.
func WithReplicationRetain(n int) Option {
	return func(s *Store) {
		if s.repl != nil {
			if n < 0 {
				n = 0
			}
			s.repl.retain = n
		}
	}
}

// ReplicationEnabled reports whether the store retains a replication log.
func (s *Store) ReplicationEnabled() bool { return s.repl != nil }

// ReplicationHead returns the offset of the newest applied record. It is
// tracked (and persisted through snapshots) even without WithReplication,
// so replication can be enabled later without renumbering history.
func (s *Store) ReplicationHead() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.head
}

// ReplicationEpoch identifies one continuous streamed history. A follower
// synced under one epoch must discard its offsets and re-bootstrap when the
// primary's epoch changes.
func (s *Store) ReplicationEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.repl == nil {
		return 0
	}
	return s.repl.epoch
}

// SetReplicationEpoch installs epoch as the store's replication epoch
// (persisted when the store has a directory). Leader election uses it on
// promotion: the winning follower adopts the won epoch as its own serving
// epoch, so every subscriber synced under an older epoch hits the epoch
// mismatch on first contact and re-bootstraps from the new primary's
// snapshot. The retained log and head are kept — the promoted store's
// applied history is the canonical history from here on. Lowering the epoch
// is refused: epochs only move forward, which is what makes stale-primary
// fencing sound.
func (s *Store) SetReplicationEpoch(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repl == nil {
		return ErrNoReplication
	}
	if s.closed {
		return ErrClosed
	}
	if epoch < s.repl.epoch {
		return fmt.Errorf("storage: replication epoch cannot move backwards (%d -> %d)", s.repl.epoch, epoch)
	}
	if epoch == s.repl.epoch {
		return nil
	}
	s.repl.epoch = epoch
	if err := s.saveEpochLocked(false); err != nil {
		return err
	}
	// Wake blocked subscribers so they observe the epoch change promptly
	// (and answer their followers with Reset instead of idling out).
	s.notifyWatchersLocked()
	return nil
}

// ReadRecords returns the encoded bodies of up to max records starting at
// offset from (1-based), plus the current head offset. A from beyond the
// head returns an empty slice; a from at or below the replication base
// returns ErrCompacted, meaning the caller needs a snapshot bootstrap.
// The returned bodies are shared and must not be mutated.
func (s *Store) ReadRecords(from uint64, max int) ([][]byte, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.repl == nil {
		return nil, 0, ErrNoReplication
	}
	if s.closed {
		return nil, 0, ErrClosed
	}
	if from == 0 || from <= s.repl.base {
		return nil, s.head, ErrCompacted
	}
	if from > s.head {
		return nil, s.head, nil
	}
	idx := int(from - s.repl.base - 1)
	n := len(s.repl.log) - idx
	if max > 0 && n > max {
		n = max
	}
	out := make([][]byte, n)
	copy(out, s.repl.log[idx:idx+n])
	return out, s.head, nil
}

// WatchAppends registers ch to receive a (non-blocking, coalesced)
// notification whenever a record is applied. The returned cancel function
// unregisters it. ch should be buffered with capacity 1.
func (s *Store) WatchAppends(ch chan struct{}) (cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repl == nil {
		return func() {}
	}
	s.repl.watchers[ch] = struct{}{}
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.repl != nil {
			delete(s.repl.watchers, ch)
		}
	}
}

// ExportState returns a consistent dump of every table as put ops, together
// with the head offset and epoch the dump corresponds to. It is the
// snapshot-bootstrap source for followers whose offset fell behind the
// replication base.
func (s *Store) ExportState() (ops []BatchOp, head, epoch uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, 0, 0, ErrClosed
	}
	s.eachLocked(func(table, key string, value []byte) error {
		ops = append(ops, BatchOp{Table: table, Key: key, Value: append([]byte(nil), value...)})
		return nil
	})
	if s.repl != nil {
		epoch = s.repl.epoch
	}
	return ops, s.head, epoch, nil
}

// DecodeRecord decodes an encoded WAL record body (as returned by
// ReadRecords) into its constituent mutations. Batch records decode into
// all their sub-ops; plain records into a single op. The values are copies:
// none aliases body, which the replication log keeps.
func DecodeRecord(body []byte) ([]BatchOp, error) {
	ops, err := decodeRecord(body)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		if !ops[i].Delete {
			ops[i].Value = append([]byte(nil), ops[i].Value...)
		}
	}
	return ops, nil
}

// ApplyReplicatedRecord applies one record streamed from a primary. The
// body is written to the follower's own WAL byte-for-byte, so a crashed
// follower replays to exactly the primary's record numbering and resumes
// from its last durable offset. offset is the record's 1-based offset on
// the primary:
//
//   - offset <= head: the record was already applied (a resume re-sent an
//     acknowledged record); it is skipped idempotently.
//   - offset == head+1: the record is applied.
//   - offset >  head+1: ErrOffsetGap; applying would hide lost records.
func (s *Store) ApplyReplicatedRecord(body []byte, offset uint64) error {
	ops, err := decodeRecord(body)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if offset <= s.head {
		return nil
	}
	if offset != s.head+1 {
		return fmt.Errorf("%w: have head %d, record offset %d", ErrOffsetGap, s.head, offset)
	}
	if s.wal != nil {
		if err := s.writeRecordLocked(body); err != nil {
			return err
		}
		if s.sync {
			if err := s.syncLocked(); err != nil {
				s.rollbackWALLocked()
				return err
			}
		}
	}
	s.applyRecordLocked(ops, body)
	return nil
}

// ResetFromExport replaces the whole store state with a snapshot export
// (as produced by ExportState) positioned at head. It is the follower side
// of a snapshot bootstrap: used on first contact, after falling behind the
// primary's replication base, and after an epoch change. The WAL is
// truncated before the new snapshot is persisted, so a crash mid-reset
// recovers to the consistent pre-reset state rather than a hybrid.
func (s *Store) ResetFromExport(ops []BatchOp, head uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.commitStagedLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.resetWALLocked(); err != nil {
			return err
		}
	}
	s.tables = make(map[string]map[string][]byte)
	s.applyLocked(ops)
	s.head = head
	if s.repl != nil {
		// This store's own streamed history restarts at head: bump the epoch
		// so any downstream subscriber of this store re-bootstraps too.
		s.repl.epoch++
		s.repl.base = head
		s.repl.log = nil
		if err := s.saveEpochLocked(false); err != nil {
			return err
		}
		s.notifyWatchersLocked()
	}
	if s.dir == "" {
		return nil
	}
	return s.writeSnapshotLocked()
}

// applyRecordLocked applies one WAL record's mutations and publishes the
// record to the replication machinery: the head offset advances, the
// acknowledged WAL length grows, and with WithReplication the encoded body
// is appended to the log and watchers are notified. body may be nil for
// memory-only stores without replication. Callers must hold s.mu.
func (s *Store) applyRecordLocked(ops []BatchOp, body []byte) {
	s.applyLocked(ops)
	s.head++
	if s.wal != nil {
		s.walAck += int64(8 + len(body))
	}
	if s.repl == nil {
		return
	}
	s.repl.log = append(s.repl.log, body)
	if s.repl.retain > 0 && len(s.repl.log) > s.repl.retain {
		drop := len(s.repl.log) - s.repl.retain
		for i := 0; i < drop; i++ {
			s.repl.log[i] = nil // release the body for GC
		}
		s.repl.base += uint64(drop)
		s.repl.log = s.repl.log[drop:]
	}
	s.notifyWatchersLocked()
}

// notifyWatchersLocked wakes every registered append watcher without
// blocking (notifications coalesce in the channel buffer).
func (s *Store) notifyWatchersLocked() {
	for ch := range s.repl.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// rollbackWALLocked restores the WAL to exactly the acknowledged prefix
// after a failed commit round, so the on-disk history keeps matching what
// has been streamed to followers. If the disk is too unhealthy even for
// that, the store is poisoned: the epoch bumps and the retained log is
// dropped, forcing every follower through a snapshot re-bootstrap.
func (s *Store) rollbackWALLocked() {
	if s.wal == nil {
		return
	}
	// The WAL is opened O_APPEND, so after truncation the next write lands
	// at the new end without repositioning.
	if s.walBuf.Flush() == nil && s.wal.Truncate(s.walAck) == nil {
		s.walBuf.Reset(s.wal)
		return
	}
	s.poisonLocked()
}

// poisonLocked records that the on-disk WAL no longer matches the streamed
// history: the epoch bumps (persisted best-effort) and the retained log is
// dropped so every subscriber hits ErrCompacted and re-bootstraps from a
// snapshot export, which always reflects acknowledged state.
func (s *Store) poisonLocked() {
	if s.repl == nil || s.repl.poisoned {
		return
	}
	s.repl.poisoned = true
	s.repl.epoch++
	s.repl.base = s.head
	s.repl.log = nil
	_ = s.saveEpochLocked(false)
	s.notifyWatchersLocked()
}

// loadEpochLocked establishes the replication epoch during Open. A clean
// flag left by the previous Close proves the WAL matches the streamed
// history, so the epoch is kept; otherwise (crash, poison, first open, or a
// file that holds only an epoch) it bumps, invalidating any follower offsets
// from the previous run. The file is rewritten without the flag before Open
// returns, so a crash from here on reads as unclean. A file that does not
// parse refuses the open: restarting the epoch would move it backwards.
func (s *Store) loadEpochLocked() error {
	data, err := s.LoadState(replStateName)
	if err != nil {
		return err
	}
	var epoch uint64
	clean := false
	if data != nil {
		f := strings.Fields(string(data))
		if len(f) > 0 {
			epoch, err = strconv.ParseUint(f[0], 10, 64)
		}
		if len(f) == 0 || len(f) > 2 || err != nil || len(f) == 2 && f[1] != cleanFlag {
			return fmt.Errorf("storage: %s in %s is corrupt; refusing to open with a reset replication epoch", replStateName, s.dir)
		}
		clean = len(f) == 2
	}
	if !clean {
		epoch++
	}
	s.repl.epoch = epoch
	return s.saveEpochLocked(false)
}

// saveEpochLocked persists the replication epoch, with the clean flag only
// when the store is closing with a WAL that matches the streamed history.
func (s *Store) saveEpochLocked(clean bool) error {
	data := strconv.AppendUint(nil, s.repl.epoch, 10)
	data = append(data, '\n')
	if clean {
		data = append(data, cleanFlag+"\n"...)
	}
	return s.SaveState(replStateName, data)
}
