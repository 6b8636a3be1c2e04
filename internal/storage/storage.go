// Package storage provides the embedded persistence layer NNexus uses for
// its tables (concept map, classification table, linking policies,
// invalidation index, object metadata). The deployed Perl system kept these
// in MySQL; this Go implementation is a self-contained key-value store with
// the durability properties the linker needs:
//
//   - every mutation is appended to a CRC-checked write-ahead log,
//   - Compact writes an atomic snapshot and truncates the log,
//   - recovery loads the snapshot and replays the log, tolerating a torn
//     tail from a crash mid-append.
//
// A data directory holds the WAL and the small files written beside it:
//
//	wal.log         the write-ahead log, appended record by record
//	snapshot.dat    the state as of the last Compact (or follower reset)
//	repl.epoch      the replication epoch and whether the last Close was clean
//	election.epoch  a failover node's election epoch and vote (internal/replication)
//	primary.epoch   the primary epoch a follower's state is synced under (ditto)
//	invindex.dat    the engine's invalidation indexes as its last clean Close
//	                left them, removed as the next open reads it (internal/core)
//
// Every file but the WAL is written one way, by the store: a temp file is
// written, fsynced and renamed over the old one, then the directory is
// fsynced. A crash leaves the old file or the new one, never a torn one, and
// a write that returned survives power loss. Other packages keep their files
// through SaveState, LoadState and RemoveState.
//
// Keys are grouped into named tables; values are opaque bytes (the engine's
// entry and domain records are the socket protocol's XML elements, written
// by internal/wire). A Store opened with an empty directory runs purely in
// memory, which is how the engine runs in tests and ephemeral deployments.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"nnexus/internal/telemetry"
)

const (
	walName      = "wal.log"
	snapshotName = "snapshot.dat"

	opPut    byte = 1
	opDelete byte = 2
	opBatch  byte = 3

	snapshotMagic uint32 = 0x4e4e5853 // "NNXS"
	// snapshotVer 2 appends the replication head offset to the header so
	// record numbering survives compaction. A version-1 snapshot predates
	// the engine's current record format and is refused.
	snapshotVer uint32 = 2

	// maxEntrySize guards recovery from absurd length prefixes caused by
	// corruption that happens to pass the CRC of a truncated record.
	maxEntrySize = 64 << 20

	// maxBatchOps guards batch decoding from absurd op counts caused by
	// corruption that happens to pass the CRC.
	maxBatchOps = 1 << 20
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("storage: store is closed")

// File is the slice of *os.File the store's write paths need. Tests inject
// failing implementations (see internal/faultinject) to exercise fsync
// failures and torn writes without touching a real disk's failure modes.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Stat() (os.FileInfo, error)
}

// OpenFileFunc opens a writable file; it has the shape of os.OpenFile.
type OpenFileFunc func(name string, flag int, perm os.FileMode) (File, error)

func osOpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// stagedAppend is a WAL record that has been written to the log buffer but
// whose in-memory application is deferred until the record is durable
// (group commit). seq orders staged appends so that concurrent writes to
// the same key apply in log order.
type stagedAppend struct {
	seq  uint64
	ops  []BatchOp
	body []byte // the encoded record, published to replication on commit
}

// BatchOp is one WAL mutation: what a write stages, a record encodes, replay
// and a follower decode, and the tables apply. Delete=false stores Value under
// (Table, Key); Delete=true removes the key (Value is ignored, and encoded
// empty).
type BatchOp struct {
	Table  string
	Key    string
	Value  []byte
	Delete bool
}

// Store is a durable, table-scoped key-value store. All methods are safe
// for concurrent use.
type Store struct {
	mu       sync.RWMutex
	dir      string
	tables   map[string]map[string][]byte
	wal      File
	walBuf   *bufio.Writer
	walAck   int64  // bytes of the WAL's applied (acknowledged) records
	head     uint64 // offset of the newest applied record (see replication.go)
	repl     *replState
	closed   bool
	sync     bool // fsync before acknowledging an append
	openFile OpenFileFunc

	// Group-commit state. In sync mode an append stages its mutation under
	// s.mu, then waits on commit for a leader round to fsync the log; the
	// leader applies all staged mutations in seq order once they are
	// durable. appendSeq and staged are protected by s.mu; the commit
	// struct has its own mutex (taken while holding s.mu only to publish,
	// never the other way around).
	appendSeq uint64
	staged    []stagedAppend
	commit    struct {
		mu         sync.Mutex
		cond       *sync.Cond
		leading    bool   // a leader round is in progress
		durable    uint64 // every seq <= durable is fsynced and applied
		failedUpto uint64 // every staged seq <= failedUpto was dropped
		err        error  // the error of the last failed round
	}

	nappends atomic.Int64
	nfsyncs  atomic.Int64
	telBatch *telemetry.Histogram // group-commit batch size (records per fsync)
}

// Option configures Open.
type Option func(*Store)

// WithSyncWrites makes every WAL append durable (fsynced) before returning.
// Slower but loses nothing on power failure; the default only guarantees
// survival of process crashes. Concurrent synced appends share fsyncs via
// group commit: appends stage under the store mutex and a leader round
// flushes and fsyncs once for every append staged so far.
func WithSyncWrites() Option {
	return func(s *Store) { s.sync = true }
}

// WithTelemetry registers the store's WAL metric families on reg:
// nnexus_wal_appends_total, nnexus_wal_fsyncs_total and the group-commit
// batch-size histogram nnexus_wal_group_commit_batch_size. reg must be
// non-nil; without this option the histogram counts on a private registry.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *Store) {
		reg.CounterFunc("nnexus_wal_appends_total",
			"Records appended to the write-ahead log.",
			func() float64 { return float64(s.nappends.Load()) })
		reg.CounterFunc("nnexus_wal_fsyncs_total",
			"fsync calls issued against the write-ahead log.",
			func() float64 { return float64(s.nfsyncs.Load()) })
		s.telBatch = batchSizeHistogram(reg)
	}
}

func batchSizeHistogram(reg *telemetry.Registry) *telemetry.Histogram {
	return reg.Histogram("nnexus_wal_group_commit_batch_size",
		"WAL records made durable per group-commit fsync.",
		1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
}

// Open opens (or creates) a store rooted at dir. If dir is empty the store
// is memory-only: mutations are not persisted and Compact is a no-op.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, tables: make(map[string]map[string][]byte), openFile: osOpenFile,
		telBatch: batchSizeHistogram(telemetry.NewRegistry())}
	s.commit.cond = sync.NewCond(&s.commit.mu)
	for _, o := range opts {
		o(s)
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	valid, err := s.replayWAL()
	if err != nil {
		return nil, err
	}
	wal, err := s.openFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	// Drop any torn tail left by a crash mid-append: replay stopped at the
	// last whole record, and appending after garbage would strand every
	// later record (replay would stop at the same torn spot again).
	if st, err := wal.Stat(); err == nil && st.Size() > valid {
		if err := wal.Truncate(valid); err != nil {
			wal.Close()
			return nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}
	s.walAck = valid
	s.wal = wal
	s.walBuf = bufio.NewWriter(wal)
	if s.repl != nil {
		if err := s.loadEpochLocked(); err != nil {
			wal.Close()
			return nil, err
		}
		s.repl.base = s.head
	}
	return s, nil
}

// SaveState replaces the state file name in the store's directory with what
// encode appends to an empty slice, atomically and durably (see the package
// comment). A memory-only store keeps nothing and never calls encode. name
// must not be one of the store's own files. SaveState takes no store lock,
// so a caller may hold its own mutex across it; calls for one name must not
// run concurrently.
func (s *Store) SaveState(name string, encode func(dst []byte) []byte) error {
	if s.dir == "" {
		return nil
	}
	data := encode(nil)
	return s.writeFileAtomic(name, func(w *bufio.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// LoadState returns the contents of the state file name: nil when it was
// never saved, or the store is memory-only. The temp file of a save that a
// crash interrupted is never read.
func (s *Store) LoadState(name string) ([]byte, error) {
	if s.dir == "" {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", name, err)
	}
	return data, nil
}

// RemoveState removes the state file name, durably; one that is not there
// is no error. A memory-only store has none.
func (s *Store) RemoveState(name string) error {
	if s.dir == "" {
		return nil
	}
	return s.writeFileAtomic(name, nil)
}

// writeFileAtomic is the one way the store writes or removes a file other
// than the WAL: fill writes a temp file opened through openFile, which is
// fsynced and renamed over name (a nil fill removes name instead), and then
// the directory is fsynced so that the rename or the removal itself survives
// power loss.
func (s *Store) writeFileAtomic(name string, fill func(w *bufio.Writer) error) error {
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"
	var err error
	if fill == nil {
		if err = os.Remove(path); errors.Is(err, os.ErrNotExist) {
			return nil
		}
	} else if err = s.fsyncFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, fill); err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = s.fsyncFile(s.dir, os.O_RDONLY, nil)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write %s: %w", name, err)
	}
	return nil
}

// fsyncFile opens name through openFile, lets fill (if any) write it, then
// fsyncs and closes it.
func (s *Store) fsyncFile(name string, flag int, fill func(w *bufio.Writer) error) error {
	f, err := s.openFile(name, flag, 0o644)
	if err != nil {
		return err
	}
	if fill != nil {
		w := bufio.NewWriter(f)
		if err = fill(w); err == nil {
			err = w.Flush()
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Put stores value under (table, key), overwriting any previous value.
func (s *Store) Put(table, key string, value []byte) error {
	return s.mutate([]BatchOp{{Table: table, Key: key, Value: value}}, false)
}

// Delete removes (table, key). Deleting a missing key is a no-op that is
// still logged (so replay stays deterministic).
func (s *Store) Delete(table, key string) error {
	return s.mutate([]BatchOp{{Table: table, Key: key, Delete: true}}, false)
}

// PutBatch applies ops atomically with respect to crash recovery: the whole
// batch is encoded into a single CRC-covered WAL record, so after a crash
// either every op survives replay or none does. In sync mode the batch
// costs one fsync (shared with any concurrently staged appends). A store
// with a WAL or a replication log refuses, before applying any op, a batch
// of more than maxBatchOps (1<<20) ops or one whose record would exceed
// maxEntrySize (64 MiB); Put and Delete refuse such a record too.
func (s *Store) PutBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	return s.mutate(ops, true)
}

// mutate appends ops to the WAL (as one record when batch, else as a single
// plain record) and applies them to the in-memory tables. Without sync
// writes the application is immediate; with them it is staged and performed
// by a group-commit round after the record is durable, preserving the
// acknowledgement contract: a nil return means the mutation is on disk, an
// error means it was never applied in memory.
func (s *Store) mutate(ops []BatchOp, batch bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// The encoded record body doubles as the replication payload, so it is
	// built whenever there is a WAL or a replication log to feed.
	var body []byte
	if s.wal != nil || s.repl != nil {
		// Replay takes a record past either bound for a torn tail and
		// truncates the WAL there, so such a record is never written.
		if len(ops) > maxBatchOps {
			s.mu.Unlock()
			return fmt.Errorf("storage: batch of %d ops exceeds the %d-op limit", len(ops), maxBatchOps)
		}
		if batch {
			body = encodeBatchBody(ops)
		} else {
			body = encodeBody(ops[0])
		}
		if len(body) > maxEntrySize {
			s.mu.Unlock()
			return fmt.Errorf("storage: record of %d bytes exceeds the %d-byte limit", len(body), maxEntrySize)
		}
	}
	if s.wal != nil {
		if err := s.writeRecordLocked(body); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	if s.wal == nil || !s.sync {
		s.applyRecordLocked(ops, body)
		s.mu.Unlock()
		return nil
	}
	s.appendSeq++
	seq := s.appendSeq
	s.staged = append(s.staged, stagedAppend{seq: seq, ops: ops, body: body})
	s.mu.Unlock()
	return s.waitDurable(seq)
}

// waitDurable blocks until the staged append identified by seq has been
// committed (returns nil) or dropped by a failed round (returns that
// round's error). If no leader round is running, the caller becomes the
// leader and commits everything staged so far.
func (s *Store) waitDurable(seq uint64) error {
	c := &s.commit
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.durable >= seq {
			return nil
		}
		if c.failedUpto >= seq {
			return c.err
		}
		if c.leading {
			c.cond.Wait()
			continue
		}
		c.leading = true
		c.mu.Unlock()
		s.commitOnce()
		c.mu.Lock()
		c.leading = false
		// Wake a writer that staged after this round began: it leads next.
		c.cond.Broadcast()
	}
}

// commitOnce runs one group-commit round: it commits everything staged so
// far, so the writers that queued up while the previous round's fsync ran
// share this one. A round that finds nothing staged — Close, Compact or
// Sync committed it first — does not fsync.
func (s *Store) commitOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.staged) > 0 {
		s.commitStagedLocked()
	}
}

// commitStagedLocked flushes and fsyncs the WAL, then applies every staged
// append in seq order and reports each one's fate to its waiting writer. On
// error the staged appends are dropped without being applied: their writers
// observe the error, and the records, though possibly on disk, are
// unacknowledged. Group-commit rounds use it, and so do Close, Compact and
// Sync, so acknowledged writes can never be lost to a truncation or close
// that outruns a pending round.
func (s *Store) commitStagedLocked() error {
	err := s.syncLocked()
	upto := s.appendSeq
	if err == nil {
		for _, st := range s.staged {
			s.applyRecordLocked(st.ops, st.body)
		}
		if len(s.staged) > 0 {
			s.telBatch.Observe(float64(len(s.staged)))
		}
	} else {
		// Restore the WAL to the acknowledged prefix so the on-disk history
		// keeps matching what replication has streamed.
		s.rollbackWALLocked()
	}
	s.staged = s.staged[:0]
	c := &s.commit
	c.mu.Lock()
	if err == nil {
		c.durable = max(c.durable, upto)
	} else if upto > c.failedUpto {
		c.failedUpto = upto
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	return err
}

// applyLocked applies mutations to the in-memory tables, copying each put's
// value.
func (s *Store) applyLocked(ops []BatchOp) {
	for _, o := range ops {
		if o.Delete {
			if t, ok := s.tables[o.Table]; ok {
				delete(t, o.Key)
				if len(t) == 0 {
					delete(s.tables, o.Table)
				}
			}
			continue
		}
		t, ok := s.tables[o.Table]
		if !ok {
			t = make(map[string][]byte)
			s.tables[o.Table] = t
		}
		t[o.Key] = append([]byte(nil), o.Value...)
	}
}

// Get returns a copy of the value stored under (table, key).
func (s *Store) Get(table, key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.tables[table][key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Scan calls fn for every key of the table in sorted key order, with a copy
// of each value. fn returning false stops the scan.
func (s *Store) Scan(table string, fn func(key string, value []byte) bool) {
	s.mu.RLock()
	t := s.tables[table]
	keys := sortedKeys(t)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = append([]byte(nil), t[k]...)
	}
	s.mu.RUnlock()
	for i, k := range keys {
		if !fn(k, vals[i]) {
			return
		}
	}
}

// Len returns the number of keys in the table.
func (s *Store) Len(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables[table])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// eachLocked calls fn for every (table, key) in sorted order, the order of
// snapshots and exports, so both are reproducible. Callers hold s.mu.
func (s *Store) eachLocked(fn func(table, key string, value []byte) error) error {
	for _, table := range sortedKeys(s.tables) {
		t := s.tables[table]
		for _, key := range sortedKeys(t) {
			if err := fn(table, key, t[key]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Ready reports whether the store can serve traffic: nil while open,
// ErrClosed after Close. It backs readiness probes.
func (s *Store) Ready() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Sync flushes buffered WAL appends to the operating system and fsyncs.
// Any group-commit appends staged at that point become durable and applied.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitStagedLocked()
}

func (s *Store) syncLocked() error {
	if s.wal == nil || s.closed {
		return nil
	}
	if err := s.walBuf.Flush(); err != nil {
		return err
	}
	s.nfsyncs.Add(1)
	return s.wal.Sync()
}

// Compact writes an atomic snapshot of the current state and truncates the
// write-ahead log. Memory-only stores return nil immediately.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.dir == "" {
		return nil
	}
	// Commit (or fail) anything staged by group commit before snapshotting,
	// so the snapshot captures exactly the acknowledged state and the
	// truncation below cannot discard records whose writers still wait.
	if err := s.commitStagedLocked(); err != nil {
		return err
	}
	// The WAL is truncated only after the snapshot, and its rename, are
	// durable.
	if err := s.writeSnapshotLocked(); err != nil {
		return err
	}
	if err := s.resetWALLocked(); err != nil {
		return err
	}
	// Records below the snapshot are now only reachable through a snapshot
	// export; advance the replication base and drop the retained log so
	// lagging subscribers observe ErrCompacted and re-bootstrap.
	if s.repl != nil {
		s.repl.base = s.head
		s.repl.log = nil
	}
	return nil
}

// resetWALLocked empties the WAL once everything in it is committed and
// superseded by a snapshot.
func (s *Store) resetWALLocked() error {
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.walBuf.Reset(s.wal)
	s.walAck = 0
	return nil
}

// Close flushes and closes the store. Further operations fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.wal != nil {
		err = s.commitStagedLocked()
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && s.repl != nil && !s.repl.poisoned {
		// The WAL now matches the streamed history exactly, which lets the
		// next Open keep the epoch.
		err = s.saveEpochLocked(true)
	}
	s.closed = true
	return err
}

// writeRecordLocked appends one framed record to the WAL buffer.
func (s *Store) writeRecordLocked(body []byte) error {
	if err := writeRecord(s.walBuf, body); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	s.nappends.Add(1)
	return nil
}

// writeRecord frames one record, in the WAL and the snapshot alike:
//
//	crc32(body) uint32 | bodyLen uint32 | body
//	body = op byte | tableLen uvarint | table | keyLen uvarint | key
//	       | valLen uvarint | val
//
// or, for batches (opBatch):
//
//	body = opBatch byte | count uvarint | sub-body...
//
// where each sub-body is a plain (self-delimiting) single-op body. The CRC
// covers the whole batch, so a torn tail drops the batch atomically.
func writeRecord(w *bufio.Writer, body []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(body)))
	w.Write(hdr[:]) // a bufio.Writer's error is sticky: the next Write returns it
	_, err := w.Write(body)
	return err
}

// readRecord reads and checks one framed record.
func readRecord(r *bufio.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxEntrySize {
		return nil, errors.New("oversized record")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[0:4]) {
		return nil, errors.New("checksum mismatch")
	}
	return body, nil
}

func encodeBody(o BatchOp) []byte {
	buf := make([]byte, 0, 1+3*binary.MaxVarintLen64+len(o.Table)+len(o.Key)+len(o.Value))
	return appendOp(buf, o)
}

// appendOp appends o's plain single-op body to buf: a delete's value is
// empty whatever o.Value holds.
func appendOp(buf []byte, o BatchOp) []byte {
	op, value := opPut, o.Value
	if o.Delete {
		op, value = opDelete, nil
	}
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(o.Table)))
	buf = append(buf, o.Table...)
	buf = binary.AppendUvarint(buf, uint64(len(o.Key)))
	buf = append(buf, o.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	return append(buf, value...)
}

// decodeOne decodes a single-op body from the front of buf and returns the
// unconsumed remainder, allowing batch sub-bodies to be concatenated. An op
// code other than opPut and opDelete is an error. A put's value aliases buf;
// a delete's is dropped.
func decodeOne(buf []byte) (o BatchOp, rest []byte, err error) {
	if len(buf) < 1 {
		return BatchOp{}, nil, errors.New("short body")
	}
	switch buf[0] {
	case opPut:
	case opDelete:
		o.Delete = true
	default:
		return BatchOp{}, nil, fmt.Errorf("op %d unknown", buf[0])
	}
	rest = buf[1:]
	read := func() ([]byte, error) {
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			return nil, errors.New("bad field length")
		}
		field := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		return field, nil
	}
	t, err := read()
	if err != nil {
		return BatchOp{}, nil, err
	}
	k, err := read()
	if err != nil {
		return BatchOp{}, nil, err
	}
	v, err := read()
	if err != nil {
		return BatchOp{}, nil, err
	}
	o.Table, o.Key = string(t), string(k)
	if !o.Delete {
		o.Value = v
	}
	return o, rest, nil
}

// encodeBatchBody encodes many ops into one opBatch record body:
// opBatch | count uvarint | sub-body... (each sub-body a plain single-op
// body, which is self-delimiting).
func encodeBatchBody(ops []BatchOp) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, o := range ops {
		size += 1 + 3*binary.MaxVarintLen64 + len(o.Table) + len(o.Key) + len(o.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, opBatch)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, o := range ops {
		buf = appendOp(buf, o)
	}
	return buf
}

// decodeBatchBody decodes an opBatch record body into its constituent ops.
func decodeBatchBody(body []byte) ([]BatchOp, error) {
	if len(body) < 1 || body[0] != opBatch {
		return nil, errors.New("not a batch body")
	}
	rest := body[1:]
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > maxBatchOps {
		return nil, errors.New("bad batch count")
	}
	rest = rest[k:]
	ops := make([]BatchOp, 0, n)
	for i := uint64(0); i < n; i++ {
		o, r, err := decodeOne(rest)
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
		rest = r
	}
	if len(rest) != 0 {
		return nil, errors.New("trailing bytes in batch body")
	}
	return ops, nil
}

// decodeRecord decodes an encoded WAL record body into its mutations, whose
// values alias body.
func decodeRecord(body []byte) ([]BatchOp, error) {
	if len(body) == 0 {
		return nil, errors.New("storage: empty record body")
	}
	if body[0] == opBatch {
		decoded, err := decodeBatchBody(body)
		if err != nil {
			return nil, fmt.Errorf("storage: decode batch record: %w", err)
		}
		return decoded, nil
	}
	o, _, err := decodeOne(body)
	if err != nil {
		return nil, fmt.Errorf("storage: decode record: %w", err)
	}
	return []BatchOp{o}, nil
}

// replayWAL applies surviving WAL records over the snapshot state and
// returns how many bytes of whole, valid records it consumed. A torn or
// corrupt tail terminates replay silently (it is the expected result of a
// crash mid-append); corruption in the middle is indistinguishable from a
// tail and is handled the same way. Every replayed record advances the
// replication head, reconstructing the offset numbering exactly.
func (s *Store) replayWAL() (valid int64, err error) {
	f, err := os.Open(filepath.Join(s.dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: open wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		body, err := readRecord(r)
		if err != nil {
			return valid, nil
		}
		ops, err := decodeRecord(body)
		if err != nil {
			return valid, nil
		}
		// The record's CRC matched, so a batch applies atomically.
		s.applyLocked(ops)
		s.head++
		valid += int64(8 + len(body))
	}
}

// writeSnapshotLocked writes the whole state through the atomic writer.
func (s *Store) writeSnapshotLocked() error {
	return s.writeFileAtomic(snapshotName, func(w *bufio.Writer) error {
		var hdr [20]byte
		binary.LittleEndian.PutUint32(hdr[0:4], snapshotMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], snapshotVer)
		count := 0
		for _, t := range s.tables {
			count += len(t)
		}
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(count))
		// v2: the replication head offset, so record numbering survives the
		// WAL truncation that follows a compaction.
		binary.LittleEndian.PutUint64(hdr[12:20], s.head)
		w.Write(hdr[:]) // sticky: surfaces at the first record or the flush
		return s.eachLocked(func(table, key string, value []byte) error {
			return writeRecord(w, encodeBody(BatchOp{Table: table, Key: key, Value: value}))
		})
	})
}

func (s *Store) loadSnapshot() error {
	f, err := os.Open(filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("storage: snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != snapshotMagic {
		return errors.New("storage: snapshot: bad magic")
	}
	ver := binary.LittleEndian.Uint32(hdr[4:8])
	if ver != snapshotVer {
		return fmt.Errorf("storage: snapshot: unsupported version %d; re-import the corpus (nnexus import)", ver)
	}
	count := binary.LittleEndian.Uint32(hdr[8:12])
	var headBuf [8]byte
	if _, err := io.ReadFull(r, headBuf[:]); err != nil {
		return fmt.Errorf("storage: snapshot head offset: %w", err)
	}
	s.head = binary.LittleEndian.Uint64(headBuf[:])
	for i := uint32(0); i < count; i++ {
		body, err := readRecord(r)
		var ops []BatchOp
		if err == nil {
			ops, err = decodeRecord(body)
		}
		if err != nil {
			return fmt.Errorf("storage: snapshot record %d: %w", i, err)
		}
		s.applyLocked(ops)
	}
	return nil
}
