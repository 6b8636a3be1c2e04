package storage

// Crash-recovery matrix: torn WAL tails at and inside every record
// boundary, fsync and write failures on the WAL, and snapshot-write
// failures. The invariant under test is the acknowledgement contract: a
// mutation whose Put/Delete returned nil must survive reopen; a mutation
// that returned an error must not corrupt anything that was acknowledged
// before it.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nnexus/internal/faultinject"
)

// walOp is one scripted mutation.
type walOp struct {
	op       byte
	key, val string
}

var crashScript = []walOp{
	{opPut, "a", "alpha"},
	{opPut, "b", "beta"},
	{opPut, "a", "alpha-2"}, // overwrite
	{opDelete, "b", ""},
	{opPut, "c", strings.Repeat("gamma", 200)}, // multi-hundred-byte record
	{opPut, "d", "delta"},
	{opDelete, "missing", ""}, // logged no-op
	{opPut, "b", "beta-2"},    // resurrect
}

// applyScript returns the expected table contents after the first n ops.
func applyScript(n int) map[string]string {
	state := make(map[string]string)
	for _, op := range crashScript[:n] {
		if op.op == opPut {
			state[op.key] = op.val
		} else {
			delete(state, op.key)
		}
	}
	return state
}

// runScript executes the full script against a synced store in dir.
func runScript(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range crashScript {
		if op.op == opPut {
			err = s.Put("t", op.key, []byte(op.val))
		} else {
			err = s.Delete("t", op.key)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// walBoundaries parses the record layout (crc32 | len | body) and returns
// the byte offset at the end of each record, starting with 0.
func walBoundaries(t *testing.T, wal []byte) []int {
	t.Helper()
	bounds := []int{0}
	off := 0
	for off < len(wal) {
		if off+8 > len(wal) {
			t.Fatalf("trailing garbage at offset %d", off)
		}
		n := int(binary.LittleEndian.Uint32(wal[off+4 : off+8]))
		off += 8 + n
		if off > len(wal) {
			t.Fatalf("record overruns file at offset %d", off)
		}
		bounds = append(bounds, off)
	}
	return bounds
}

func checkState(t *testing.T, s *Store, want map[string]string, label string) {
	t.Helper()
	if got := s.Len("t"); got != len(want) {
		t.Errorf("%s: %d keys, want %d", label, got, len(want))
	}
	for k, v := range want {
		got, ok := s.Get("t", k)
		if !ok {
			t.Errorf("%s: acknowledged key %q lost", label, k)
			continue
		}
		if string(got) != v {
			t.Errorf("%s: key %q = %q, want %q", label, k, got, v)
		}
	}
}

// TestChaosWALTornTailMatrix truncates the WAL at every record boundary and
// at points inside every record (mid-header and mid-body), then reopens.
// Records wholly before the cut must replay; the torn record and everything
// after must vanish without failing recovery.
func TestChaosWALTornTailMatrix(t *testing.T) {
	src := t.TempDir()
	runScript(t, src)
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := walBoundaries(t, wal)
	if len(bounds)-1 != len(crashScript) {
		t.Fatalf("wal holds %d records, want %d", len(bounds)-1, len(crashScript))
	}

	for i := 0; i < len(bounds); i++ {
		cuts := []int{bounds[i]} // clean cut: exactly i records survive
		if i < len(bounds)-1 {
			bodyLen := bounds[i+1] - bounds[i] - 8
			cuts = append(cuts,
				bounds[i]+3,           // torn header
				bounds[i]+8,           // header intact, empty body
				bounds[i]+8+bodyLen/2, // torn body
				bounds[i+1]-1,         // one byte short of complete
			)
		}
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("records=%d/cut=%d", i, cut), func(t *testing.T) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := Open(dir)
				if err != nil {
					t.Fatalf("recovery from torn tail failed: %v", err)
				}
				defer s.Close()
				checkState(t, s, applyScript(i), "after torn tail")
			})
		}
	}
}

// TestChaosTornTailOverSnapshot layers the torn-tail matrix over a
// compacted snapshot: writes acknowledged before the compaction must
// survive any WAL truncation whatsoever.
func TestChaosTornTailOverSnapshot(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]string{"k1": "v1", "k2": "v2", "k3": strings.Repeat("x", 100)}
	for k, v := range base {
		if err := s.Put("base", k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, op := range crashScript {
		if op.op == opPut {
			err = s.Put("t", op.key, []byte(op.val))
		} else {
			err = s.Delete("t", op.key)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(src, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := walBoundaries(t, wal)

	for i := 0; i < len(bounds); i++ {
		cut := bounds[i]
		if i < len(bounds)-1 {
			cut += (bounds[i+1] - bounds[i]) / 2 // always torn, never clean
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		for k, v := range base {
			got, ok := s.Get("base", k)
			if !ok || string(got) != v {
				t.Errorf("cut=%d: snapshotted key %q = %q,%v, want %q", cut, k, got, ok, v)
			}
		}
		checkState(t, s, applyScript(i), fmt.Sprintf("cut=%d", cut))
		s.Close()
	}
}

// walInjector builds an OpenFileFunc that wraps the WAL (or any file whose
// base name matches) with the given faults and records the wrapper.
func walInjector(match string, opts ...faultinject.FileOption) (OpenFileFunc, *[]*faultinject.File) {
	var wrapped []*faultinject.File
	fn := func(name string, flag int, perm os.FileMode) (File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		if filepath.Base(name) != match {
			return f, nil
		}
		w := faultinject.WrapFile(f, opts...)
		wrapped = append(wrapped, w)
		return w, nil
	}
	return fn, &wrapped
}

// TestChaosFsyncFailureNotAcknowledged fails the WAL fsync under
// WithSyncWrites: the Put must return the error (the write is not
// acknowledged) and every previously acknowledged write must survive
// reopen.
func TestChaosFsyncFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	fn, _ := walInjector(walName, faultinject.FailSyncAfter(3, nil))
	s, err := Open(dir, WithSyncWrites(), WithOpenFile(fn))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k3", []byte("v3")); err == nil {
		t.Fatal("put with failing fsync was acknowledged")
	}
	// The unacknowledged write must not appear in the live store either.
	if _, ok := s.Get("t", "k3"); ok {
		t.Error("unacknowledged key visible in live store")
	}
	s.Close() // close errors are acceptable here: the disk is "failing"

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, k := range []string{"k1", "k2"} {
		if _, ok := r.Get("t", k); !ok {
			t.Errorf("acknowledged key %q lost after fsync failure", k)
		}
	}
}

// TestChaosWALWriteFailure fails the WAL write itself: the mutation is
// rejected, the record never reaches disk, and reopen sees exactly the
// acknowledged prefix.
func TestChaosWALWriteFailure(t *testing.T) {
	dir := t.TempDir()
	// Each synced Put costs one buffered flush → one File.Write.
	fn, _ := walInjector(walName, faultinject.FailFileWriteAfter(3, nil))
	s, err := Open(dir, WithSyncWrites(), WithOpenFile(fn))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k3", []byte("v3")); err == nil {
		t.Fatal("put with failing disk write was acknowledged")
	}
	if _, ok := s.Get("t", "k3"); ok {
		t.Error("unacknowledged key visible in live store")
	}
	s.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkState(t, r, map[string]string{"k1": "v1", "k2": "v2"}, "after write failure")
	if _, ok := r.Get("t", "k3"); ok {
		t.Error("rejected write reappeared after reopen")
	}
}

// TestChaosSnapshotWriteFailureLeavesStoreRecoverable fails the snapshot
// temp-file writes: Compact errors, the previous on-disk state stays
// authoritative, the store keeps serving, and reopen recovers everything.
func TestChaosSnapshotWriteFailureLeavesStoreRecoverable(t *testing.T) {
	dir := t.TempDir()
	fn, _ := walInjector(snapshotName+".tmp", faultinject.FailFileWriteAfter(1, nil))
	s, err := Open(dir, WithSyncWrites(), WithOpenFile(fn))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("compact with failing snapshot writes succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !os.IsNotExist(err) {
		t.Error("failed compaction must not install a snapshot")
	}
	// The store survives the failed compaction and keeps accepting writes.
	if err := s.Put("t", "k2", []byte("v2")); err != nil {
		t.Fatalf("put after failed compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkState(t, r, map[string]string{"k1": "v1", "k2": "v2"}, "after failed compact")
}

// TestCompactSyncsDirBeforeTruncatingWAL: Compact fsyncs the directory after
// renaming the snapshot into place and before truncating the WAL. Without
// that fsync a power cut can keep the truncation and lose the rename, and
// with it every acknowledged write the snapshot held.
func TestCompactSyncsDirBeforeTruncatingWAL(t *testing.T) {
	dir := t.TempDir()
	var events []string
	open := func(name string, flag int, perm os.FileMode) (File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &recordingFile{File: f, name: name, dir: dir, events: &events}, nil
	}
	s, err := Open(dir, WithSyncWrites(), WithOpenFile(open))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	events = nil
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	synced := -1
	for i, e := range events {
		switch e {
		case "sync dir after rename":
			synced = i
		case "truncate wal to 0":
			if synced < 0 {
				t.Fatalf("WAL truncated before a directory fsync made the snapshot's rename durable: %q", events)
			}
			return
		}
	}
	t.Fatalf("Compact never truncated the WAL: %q", events)
}

// recordingFile logs the calls Compact's ordering depends on.
type recordingFile struct {
	File
	name, dir string
	events    *[]string
}

func (f *recordingFile) Sync() error {
	if f.name == f.dir {
		_, snap := os.Stat(filepath.Join(f.dir, snapshotName))
		_, tmp := os.Stat(filepath.Join(f.dir, snapshotName+".tmp"))
		if snap == nil && os.IsNotExist(tmp) {
			*f.events = append(*f.events, "sync dir after rename")
		}
	}
	return f.File.Sync()
}

func (f *recordingFile) Truncate(size int64) error {
	if filepath.Base(f.name) == walName && size == 0 {
		*f.events = append(*f.events, "truncate wal to 0")
	}
	return f.File.Truncate(size)
}

func TestStoreReady(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ready(); err != nil {
		t.Errorf("open store not ready: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ready(); err != ErrClosed {
		t.Errorf("closed store Ready() = %v, want ErrClosed", err)
	}
}
