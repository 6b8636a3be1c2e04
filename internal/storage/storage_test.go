package storage

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemoryOnlyBasics(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("objects", "1", []byte("planar graph")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("objects", "1")
	if !ok || string(v) != "planar graph" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := s.Get("objects", "2"); ok {
		t.Error("missing key found")
	}
	if err := s.Delete("objects", "1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("objects", "1"); ok {
		t.Error("deleted key found")
	}
	if err := s.Compact(); err != nil {
		t.Errorf("memory compact: %v", err)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put("t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("t", "k50"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len("t") != 99 {
		t.Fatalf("len = %d, want 99", s2.Len("t"))
	}
	if v, ok := s2.Get("t", "k7"); !ok || string(v) != "v7" {
		t.Fatalf("k7 = %q, %v", v, ok)
	}
	if _, ok := s2.Get("t", "k50"); ok {
		t.Error("deleted key resurrected")
	}
}

func TestCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_ = s.Put("a", fmt.Sprintf("k%d", i), []byte("x"))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() != 0 {
		t.Errorf("wal size after compact = %d", s.WALSize())
	}
	// More writes after compaction land in the fresh WAL.
	_ = s.Put("a", "post", []byte("y"))
	_ = s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len("a") != 51 {
		t.Fatalf("len = %d, want 51", s2.Len("a"))
	}
	if v, _ := s2.Get("a", "post"); string(v) != "y" {
		t.Error("post-compaction write lost")
	}
}

func TestTornWALTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put("t", "good", []byte("1"))
	_ = s.Close()

	// Simulate a crash mid-append: garbage / truncated record at the tail.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer s2.Close()
	if v, ok := s2.Get("t", "good"); !ok || string(v) != "1" {
		t.Fatalf("good record lost: %q %v", v, ok)
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put("t", "first", []byte("1"))
	_ = s.Put("t", "second", []byte("2"))
	_ = s.Close()

	// Flip a byte in the middle of the log (second record's body).
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with corrupt record: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get("t", "first"); !ok {
		t.Error("record before corruption lost")
	}
	if _, ok := s2.Get("t", "second"); ok {
		t.Error("corrupt record applied")
	}
}

// refusedThenKept writes through the oversized mutation write, which must be
// refused with an error naming want, then a small put, and checks after a
// reopen that the small put survived: replay takes an oversized record for a
// torn tail, so writing one would lose every write after it.
func refusedThenKept(t *testing.T, want string, write func(s *Store) error) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(s); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("oversized write: err = %v, want one naming %q", err, want)
	}
	if err := s.Put("t", "after", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("t", "after"); !ok || string(v) != "1" {
		t.Fatalf("write after the refused one lost on reopen: %q %v", v, ok)
	}
	if n := s2.Len("t"); n != 1 {
		t.Fatalf("table holds %d keys after reopen, want 1", n)
	}
}

func TestRecordPastSizeLimitIsRefused(t *testing.T) {
	refusedThenKept(t, fmt.Sprintf("%d-byte limit", maxEntrySize), func(s *Store) error {
		return s.Put("t", "big", make([]byte, maxEntrySize+1))
	})
}

func TestBatchPastOpLimitIsRefused(t *testing.T) {
	refusedThenKept(t, fmt.Sprintf("batch of %d ops", maxBatchOps+1), func(s *Store) error {
		ops := make([]BatchOp, maxBatchOps+1)
		one := []byte{1}
		for i := range ops {
			ops[i] = BatchOp{Table: "t", Key: "k", Value: one}
		}
		return s.PutBatch(ops)
	})
}

func TestGetReturnsCopy(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	_ = s.Put("t", "k", []byte("abc"))
	v, _ := s.Get("t", "k")
	v[0] = 'X'
	v2, _ := s.Get("t", "k")
	if string(v2) != "abc" {
		t.Error("internal state mutated through returned slice")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	buf := []byte("abc")
	_ = s.Put("t", "k", buf)
	buf[0] = 'X'
	v, _ := s.Get("t", "k")
	if string(v) != "abc" {
		t.Error("store aliased caller's buffer")
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	for _, k := range []string{"c", "a", "b"} {
		_ = s.Put("t", k, []byte(k))
	}
	var got []string
	s.Scan("t", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	if fmt.Sprint(got) != "[a b c]" {
		t.Errorf("scan order = %v", got)
	}
	got = nil
	s.Scan("t", func(k string, v []byte) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Errorf("early stop scanned %d", len(got))
	}
}

// tables returns the names of the store's non-empty tables, sorted.
func tables(s *Store) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.tables)
}

// A table exists while it holds a key: deleting its last drops it.
func TestTables(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	_ = s.Put("zeta", "k", nil)
	_ = s.Put("alpha", "k", nil)
	if got := fmt.Sprint(tables(s)); got != "[alpha zeta]" {
		t.Errorf("tables = %v", got)
	}
	_ = s.Delete("alpha", "k")
	if got := fmt.Sprint(tables(s)); got != "[zeta]" {
		t.Errorf("tables after delete = %v", got)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := Open("")
	_ = s.Close()
	if err := s.Put("t", "k", nil); err != ErrClosed {
		t.Errorf("Put after close = %v", err)
	}
	if err := s.Delete("t", "k"); err != ErrClosed {
		t.Errorf("Delete after close = %v", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Errorf("Compact after close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestSyncWritesOption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put("t", "k", []byte("v"))
	// Without Close: the record must already be durable on disk.
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("sync write not on disk")
	}
	_ = s.Close()
}

// Body encode/decode round-trips for arbitrary strings and values.
func TestBodyRoundTrip(t *testing.T) {
	f := func(table, key string, value []byte) bool {
		body := encodeBody(BatchOp{Table: table, Key: key, Value: value})
		o, _, err := decodeOne(body)
		if err != nil || o.Delete || o.Table != table || o.Key != key {
			return false
		}
		v := o.Value
		if len(v) != len(value) {
			return false
		}
		for i := range v {
			if v[i] != value[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Random workload: state after reopen equals live in-memory state.
func TestRecoveryEqualsLiveState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	shadow := make(map[string]string)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(300))
		switch rng.Intn(5) {
		case 0:
			_ = s.Delete("t", key)
			delete(shadow, key)
		case 1:
			if rng.Intn(10) == 0 {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		default:
			val := fmt.Sprintf("v%d", i)
			_ = s.Put("t", key, []byte(val))
			shadow[key] = val
		}
	}
	_ = s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len("t") != len(shadow) {
		t.Fatalf("len = %d, want %d", s2.Len("t"), len(shadow))
	}
	for k, want := range shadow {
		if v, ok := s2.Get("t", k); !ok || string(v) != want {
			t.Fatalf("key %s = %q, want %q", k, v, want)
		}
	}
}

func TestConcurrentPuts(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = s.Put("t", fmt.Sprintf("g%d-k%d", g, i), []byte("v"))
			}
		}(g)
	}
	wg.Wait()
	if s.Len("t") != 800 {
		t.Errorf("len = %d, want 800", s.Len("t"))
	}
}

func BenchmarkPut(b *testing.B) {
	s, _ := Open(b.TempDir())
	defer s.Close()
	val := make([]byte, 256)
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Put("t", fmt.Sprintf("k%d", i%1000), val)
	}
}

func BenchmarkGet(b *testing.B) {
	s, _ := Open("")
	defer s.Close()
	for i := 0; i < 1000; i++ {
		_ = s.Put("t", fmt.Sprintf("k%d", i), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get("t", "k500")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_ = s.Put("t", fmt.Sprintf("k%d", i), []byte("value"))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	snapPath := filepath.Join(dir, "snapshot.dat")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte in a record body: checksum mismatch must be reported.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-2] ^= 0xff
	if err := os.WriteFile(snapPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt snapshot accepted")
	}

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := os.WriteFile(snapPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("bad magic accepted")
	}

	// Unsupported version.
	badv := append([]byte(nil), data...)
	badv[4] = 99
	if err := os.WriteFile(snapPath, badv, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("bad version accepted")
	}

	// Version 1 predates the engine's record format: refused, not read.
	v1 := append([]byte(nil), data...)
	v1[4] = 1
	if err := os.WriteFile(snapPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "re-import") {
		t.Errorf("version-1 snapshot: Open = %v, want a refusal saying to re-import", err)
	}

	// Truncated snapshot.
	if err := os.WriteFile(snapPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestWALSizeGrowsAndResets(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.WALSize() != 0 {
		t.Errorf("initial wal size = %d", s.WALSize())
	}
	_ = s.Put("t", "k", []byte("v"))
	if s.WALSize() == 0 {
		t.Error("wal size did not grow")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() != 0 {
		t.Errorf("wal size after compact = %d", s.WALSize())
	}
	// Memory-only store reports zero.
	m, _ := Open("")
	defer m.Close()
	_ = m.Put("t", "k", []byte("v"))
	if m.WALSize() != 0 {
		t.Errorf("memory wal size = %d", m.WALSize())
	}
}

func TestOpenOnFileFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "afile")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("opening a store rooted at a regular file succeeded")
	}
}

// TestStateFiles: SaveState and LoadState round-trip a file beside the WAL,
// an absent file reads as nil, RemoveState removes one (an absent one too),
// a memory-only store keeps nothing and never runs the encoder, and the temp
// file of an interrupted save is never read.
func TestStateFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if data, err := s.LoadState("vote"); data != nil || err != nil {
		t.Fatalf("absent state = %q, %v; want nil, nil", data, err)
	}
	if err := s.SaveState("vote", text("3\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveState("vote", text("4\n")); err != nil {
		t.Fatal(err)
	}
	// A crash mid-save leaves a temp file, for this name and for one never
	// saved: neither is read.
	for _, name := range []string{"vote.tmp", "other.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if data, err := s.LoadState("vote"); string(data) != "4\n" || err != nil {
		t.Fatalf("state = %q, %v; want the last save", data, err)
	}
	if data, err := s.LoadState("other"); data != nil || err != nil {
		t.Fatalf("state with only a stray temp file = %q, %v; want nil, nil", data, err)
	}
	for range 2 {
		if err := s.RemoveState("vote"); err != nil {
			t.Fatal(err)
		}
		if data, err := s.LoadState("vote"); data != nil || err != nil {
			t.Fatalf("removed state = %q, %v; want nil, nil", data, err)
		}
	}

	m, _ := Open("")
	defer m.Close()
	encode := func([]byte) []byte {
		t.Error("a memory-only store ran the encoder")
		return nil
	}
	if err := m.SaveState("vote", encode); err != nil {
		t.Fatal(err)
	}
	if data, err := m.LoadState("vote"); data != nil || err != nil || m.RemoveState("vote") != nil {
		t.Fatalf("memory-only state = %q, %v; want nil, nil", data, err)
	}
}

// text is an encoder for SaveState that appends s.
func text(s string) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, s...) }
}

// TestRecordBytesPinned pins the WAL bytes of three records: a plain put, a
// one-op batch deleting a key with a non-nil Value (encoded empty), and a
// batch of puts and a delete. A change to how a mutation is staged or
// encoded must leave every byte on disk as it was.
func TestRecordBytesPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("entries", "1", []byte(`{"id":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]BatchOp{{Table: "invalid", Key: "1", Value: []byte("stale"), Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]BatchOp{
		{Table: "entries", Key: "2", Value: []byte(`{"id":2}`)},
		{Table: "invalid", Key: "1", Value: []byte("1")},
		{Table: "entries", Key: "1", Value: []byte("x"), Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	want := "5e406a0a14000000" + "0107656e74726965730131087b226964223a317d" +
		"83732ed30e000000" + "03010207696e76616c6964013100" +
		"c8b1a9de2f000000" + "03030107656e74726965730132087b226964223a327d" +
		"0107696e76616c6964013101310207656e7472696573013100"
	if hex.EncodeToString(got) != want {
		t.Fatalf("wal.log = %x\nwant      %s", got, want)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get("entries", "1"); ok {
		t.Error("entry 1 survived its delete")
	}
	if v, ok := s.Get("entries", "2"); !ok || string(v) != `{"id":2}` {
		t.Errorf("entry 2 = %q, %v", v, ok)
	}
	if v, ok := s.Get("invalid", "1"); !ok || string(v) != "1" {
		t.Errorf("flag 1 = %q, %v", v, ok)
	}
}

// The store's test-only accessors.

// WithOpenFile routes every file the store writes through fn instead of
// os.OpenFile: the WAL, each temp file of the atomic writer, and the
// directory that writer fsyncs. Used by fault-injection tests.
func WithOpenFile(fn OpenFileFunc) Option {
	return func(s *Store) { s.openFile = fn }
}

// Fsyncs returns the number of fsync calls issued against the WAL since
// Open. With group commit this grows sublinearly in the number of synced
// appends under concurrency.
func (s *Store) Fsyncs() int64 { return s.nfsyncs.Load() }

// Appends returns the number of records appended to the WAL since Open.
func (s *Store) Appends() int64 { return s.nappends.Load() }

// WALSize returns the bytes of the write-ahead log, on disk and buffered (0
// for memory-only stores).
func (s *Store) WALSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.wal == nil {
		return 0
	}
	st, err := s.wal.Stat()
	if err != nil {
		return -1
	}
	return st.Size() + int64(s.walBuf.Buffered())
}

// ReplicationBase returns the newest offset that is NOT retained in the
// replication log: followers at or below it must bootstrap from a snapshot.
func (s *Store) ReplicationBase() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.repl == nil {
		return s.head
	}
	return s.repl.base
}
