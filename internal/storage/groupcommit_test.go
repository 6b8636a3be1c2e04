package storage

// Group-commit and batch-record tests: PutBatch atomicity (live, across
// reopen, and under torn tails), fsync coalescing across concurrent synced
// writers, and the acknowledgement contract when a group's fsync fails.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/faultinject"
	"nnexus/internal/telemetry"
)

func TestPutBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "pre", []byte("old")); err != nil {
		t.Fatal(err)
	}
	err = s.PutBatch([]BatchOp{
		{Table: "t", Key: "a", Value: []byte("alpha")},
		{Table: "u", Key: "b", Value: []byte("beta")},
		{Table: "t", Key: "pre", Delete: true},
		{Table: "t", Key: "c", Value: []byte("gamma-1")},
		{Table: "t", Key: "c", Value: []byte("gamma-2")}, // later op wins
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, label string) {
		t.Helper()
		if v, ok := s.Get("t", "a"); !ok || string(v) != "alpha" {
			t.Errorf("%s: t/a = %q,%v", label, v, ok)
		}
		if v, ok := s.Get("u", "b"); !ok || string(v) != "beta" {
			t.Errorf("%s: u/b = %q,%v", label, v, ok)
		}
		if _, ok := s.Get("t", "pre"); ok {
			t.Errorf("%s: deleted key survived", label)
		}
		if v, ok := s.Get("t", "c"); !ok || string(v) != "gamma-2" {
			t.Errorf("%s: t/c = %q,%v, want the batch's later op", label, v, ok)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "reopened")
}

func TestPutBatchEmptyAndClosed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]BatchOp{{Table: "t", Key: "k"}}); err != ErrClosed {
		t.Errorf("batch on closed store = %v, want ErrClosed", err)
	}
}

// TestChaosBatchTornTail extends the crash matrix to multi-record batch
// writes: a crash tearing the tail anywhere inside a batch record must drop
// the batch as a unit on reopen — no acknowledged-lost keys before it, no
// partially-applied batch after it.
func TestChaosBatchTornTail(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "base", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	batch := []BatchOp{
		{Table: "t", Key: "b1", Value: []byte("v1")},
		{Table: "t", Key: "base", Delete: true},
		{Table: "t", Key: "b2", Value: []byte("v2")},
		{Table: "u", Key: "b3", Value: []byte("v3")},
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := walBoundaries(t, wal)
	if len(bounds) != 3 { // base put + one batch record
		t.Fatalf("wal holds %d records, want 2", len(bounds)-1)
	}
	batchStart, batchEnd := bounds[1], bounds[2]
	// Sanity: the final record really is an opBatch record.
	if wal[batchStart+8] != opBatch {
		t.Fatalf("final record op = %d, want opBatch", wal[batchStart+8])
	}

	for cut := batchStart; cut <= batchEnd; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		whole := cut == batchEnd
		if _, ok := r.Get("t", "base"); ok == whole {
			t.Errorf("cut=%d: base key present=%v, want %v (batch deletes it)", cut, ok, !whole)
		}
		for _, k := range []string{"b1", "b2"} {
			if _, ok := r.Get("t", k); ok != whole {
				t.Errorf("cut=%d: batch key t/%s present=%v, want %v (all-or-nothing)", cut, k, ok, whole)
			}
		}
		if _, ok := r.Get("u", "b3"); ok != whole {
			t.Errorf("cut=%d: batch key u/b3 present=%v, want %v", cut, ok, whole)
		}
		r.Close()
	}
}

// slowSyncWAL opens the WAL through faultinject's file (with opts) and
// wraps it so every Sync also takes delay, as a disk's fsync does. Other
// files open unwrapped.
func slowSyncWAL(delay time.Duration, opts ...faultinject.FileOption) OpenFileFunc {
	return func(name string, flag int, perm os.FileMode) (File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil || filepath.Base(name) != walName {
			return f, err
		}
		return slowSyncFile{faultinject.WrapFile(f, opts...), delay}, nil
	}
}

type slowSyncFile struct {
	*faultinject.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestGroupCommitCoalescesFsyncs runs many concurrent synced writers over a
// WAL whose fsync takes milliseconds: every acknowledged write must survive
// reopen, while the writers that queue up during one round's fsync share
// the next, so the store issues far fewer fsyncs than one per operation.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	const (
		writers = 8
		each    = 25
	)
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s, err := Open(dir, WithSyncWrites(),
		WithOpenFile(slowSyncWAL(3*time.Millisecond)), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Put("t", key, []byte(key)); err != nil {
					t.Errorf("put %s: %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()

	appends, fsyncs := s.Appends(), s.Fsyncs()
	if appends != writers*each {
		t.Errorf("appends = %d, want %d", appends, writers*each)
	}
	if fsyncs == 0 {
		t.Fatal("no fsyncs under WithSyncWrites")
	}
	if 2*fsyncs > appends {
		t.Errorf("fsyncs/append = %d/%d = %.2f, want < 0.5: group commit never coalesced",
			fsyncs, appends, float64(fsyncs)/float64(appends))
	}
	snap := reg.Snapshot()
	hist, _ := snap["nnexus_wal_group_commit_batch_size"].(map[string]interface{})
	if n, _ := hist["count"].(uint64); int64(n) != fsyncs {
		t.Errorf("batch-size histogram count = %v, want %d (one observation per commit round)",
			hist["count"], fsyncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Len("t"); got != writers*each {
		t.Errorf("reopened store holds %d keys, want %d", got, writers*each)
	}
	t.Logf("appends=%d fsyncs=%d (%.3f fsyncs/op)", appends, fsyncs, float64(fsyncs)/float64(appends))
}

// TestGroupCommitFsyncFailureFailsWholeRound: when a commit round's fsync
// fails, every writer staged into it gets the error and none of their
// mutations become visible, while previously acknowledged writes survive
// reopen. The slow fsync lets the writers queue up into shared rounds.
func TestGroupCommitFsyncFailureFailsWholeRound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSyncWrites(),
		WithOpenFile(slowSyncWAL(3*time.Millisecond, faultinject.FailSyncAfter(2, nil))))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "acked", []byte("v")); err != nil {
		t.Fatal(err) // first fsync succeeds
	}
	const writers = 4
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.Put("t", fmt.Sprintf("doomed-%d", w), []byte("v")); err != nil {
				failed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() != writers {
		t.Errorf("%d of %d writers in the failed round were acknowledged", writers-int(failed.Load()), writers)
	}
	for w := 0; w < writers; w++ {
		if _, ok := s.Get("t", fmt.Sprintf("doomed-%d", w)); ok {
			t.Errorf("unacknowledged key doomed-%d visible in live store", w)
		}
	}
	s.Close() // close errors acceptable: the disk is "failing"

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Get("t", "acked"); !ok {
		t.Error("acknowledged key lost after failed group commit")
	}
}
