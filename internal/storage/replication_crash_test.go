package storage

// Follower crash-recovery matrix for WAL-shipping replication. A follower
// writes every replicated record byte-identical to its own WAL, so a crash
// at ANY point — a clean record boundary, mid-header, mid-body, and in
// particular inside a multi-op batch record — must recover to exactly the
// prefix of whole durable records. Resuming the stream from the recovered
// head must then produce the primary's state with no gaps (contiguity is
// enforced) and no duplicates (already-applied offsets are skipped).

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// replScript mutates a primary store through the full mutation surface:
// plain puts and deletes plus multi-op batch records (one WAL record each).
var replScript = []func(s *Store) error{
	func(s *Store) error { return s.Put("t", "a", []byte("alpha")) },
	func(s *Store) error { return s.Put("t", "b", []byte("beta")) },
	func(s *Store) error {
		return s.PutBatch([]BatchOp{ // multi-op batch: one record, several ops
			{Table: "t", Key: "c", Value: []byte(strings.Repeat("gamma", 100))},
			{Table: "u", Key: "x", Value: []byte("xenon")},
			{Table: "t", Key: "a", Delete: true},
			{Table: "u", Key: "y", Value: []byte("yttrium")},
		})
	},
	func(s *Store) error { return s.Delete("t", "b") },
	func(s *Store) error { return s.Put("t", "a", []byte("alpha-2")) },
	func(s *Store) error {
		return s.PutBatch([]BatchOp{
			{Table: "u", Key: "x", Delete: true},
			{Table: "t", Key: "d", Value: []byte("delta")},
		})
	},
	func(s *Store) error { return s.Put("u", "z", []byte("zirconium")) },
}

// runReplScript builds a replicating primary in dir, returning its record
// stream and head.
func runReplScript(t *testing.T, dir string) (records [][]byte, head uint64) {
	t.Helper()
	p, err := Open(dir, WithSyncWrites(), WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i, step := range replScript {
		if err := step(p); err != nil {
			t.Fatalf("script step %d: %v", i, err)
		}
	}
	records, head, err = p.ReadRecords(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if head != uint64(len(replScript)) || len(records) != len(replScript) {
		t.Fatalf("primary head %d with %d records, want %d", head, len(records), len(replScript))
	}
	return records, head
}

// dumpTables snapshots every table of a store for whole-state comparison.
func dumpTables(s *Store) map[string]map[string]string {
	out := make(map[string]map[string]string)
	for _, table := range s.Tables() {
		m := make(map[string]string)
		s.Scan(table, func(key string, value []byte) bool {
			m[key] = string(value)
			return true
		})
		out[table] = m
	}
	return out
}

func compareStores(t *testing.T, got, want *Store, label string) {
	t.Helper()
	g, w := dumpTables(got), dumpTables(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d tables, want %d", label, len(g), len(w))
	}
	for table, wm := range w {
		gm := g[table]
		if len(gm) != len(wm) {
			t.Errorf("%s: table %q has %d keys, want %d", label, table, len(gm), len(wm))
		}
		for k, v := range wm {
			if gm[k] != v {
				t.Errorf("%s: table %q key %q = %q, want %q", label, table, k, gm[k], v)
			}
		}
	}
	if gh, wh := got.ReplicationHead(), want.ReplicationHead(); gh != wh {
		t.Errorf("%s: head %d, want %d", label, gh, wh)
	}
}

// TestChaosReplFollowerCrashMatrix kills a follower at every WAL record
// boundary and inside every record (torn header, torn body — including
// mid-batch), reopens it, and resumes the stream from offset 1. The
// recovered follower must report the exact durable prefix as its head,
// silently skip the records it already holds, reject none, and converge to
// the primary's state.
func TestChaosReplFollowerCrashMatrix(t *testing.T) {
	primaryDir := t.TempDir()
	records, head := runReplScript(t, primaryDir)
	primary, err := Open(primaryDir, WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	// A follower's WAL is byte-identical to the primary's (same records,
	// same framing), so the primary's WAL doubles as the template for every
	// crash point.
	wal, err := os.ReadFile(filepath.Join(primaryDir, walName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := walBoundaries(t, wal)
	if len(bounds)-1 != int(head) {
		t.Fatalf("wal holds %d records, want %d", len(bounds)-1, head)
	}

	for i := 0; i < len(bounds); i++ {
		cuts := []int{bounds[i]} // clean cut: exactly i records durable
		if i < len(bounds)-1 {
			bodyLen := bounds[i+1] - bounds[i] - 8
			cuts = append(cuts,
				bounds[i]+3,           // torn header
				bounds[i]+8,           // header intact, empty body
				bounds[i]+8+bodyLen/2, // torn body (mid-batch for batch records)
				bounds[i+1]-1,         // one byte short of complete
			)
		}
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("records=%d/cut=%d", i, cut), func(t *testing.T) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				f, err := Open(dir, WithSyncWrites())
				if err != nil {
					t.Fatalf("follower recovery from torn tail failed: %v", err)
				}
				defer f.Close()
				// Resumes from the last durable offset: the torn record and
				// everything after it are gone, whole records all survive.
				if got := f.ReplicationHead(); got != uint64(i) {
					t.Fatalf("recovered head = %d, want %d", got, i)
				}
				// Re-deliver the full stream, as a primary would after the
				// follower reconnects asking from head+1 — plus the prefix it
				// already holds, which must dedup as no-ops.
				for off := uint64(1); off <= head; off++ {
					if err := f.ApplyReplicatedRecord(records[off-1], off); err != nil {
						t.Fatalf("re-applying offset %d: %v", off, err)
					}
				}
				compareStores(t, f, primary, "after resume")
				// A gap must be rejected, not papered over.
				if err := f.ApplyReplicatedRecord(records[0], head+2); err == nil {
					t.Error("record skipping an offset was accepted")
				}
			})
		}
	}
}

// TestChaosReplFollowerCrashDuringResume crashes the follower again in the
// middle of catching up (after a partial resume) and verifies the second
// recovery still converges — the matrix composed with itself once.
func TestChaosReplFollowerCrashDuringResume(t *testing.T) {
	primaryDir := t.TempDir()
	records, head := runReplScript(t, primaryDir)
	primary, err := Open(primaryDir, WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	dir := t.TempDir()
	f, err := Open(dir, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	// First life: apply half the stream, then "crash" (close without the
	// rest; synced writes mean the half is durable).
	halfway := head / 2
	for off := uint64(1); off <= halfway; off++ {
		if err := f.ApplyReplicatedRecord(records[off-1], off); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	// Second life: tear the last record's bytes to simulate a mid-write
	// crash, reopen, and finish the stream.
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal[:len(wal)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(dir, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := f2.ReplicationHead(); got != halfway-1 {
		t.Fatalf("head after torn resume = %d, want %d", got, halfway-1)
	}
	for off := uint64(1); off <= head; off++ {
		if err := f2.ApplyReplicatedRecord(records[off-1], off); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
	}
	compareStores(t, f2, primary, "after second recovery")
}

// TestChaosReplStreamUnderConcurrentWrites runs a writer mutating the
// primary while a follower tails it through ReadRecords/WatchAppends —
// the storage-level replication pipeline under the race detector.
func TestChaosReplStreamUnderConcurrentWrites(t *testing.T) {
	primary, err := Open(t.TempDir(), WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	const writes = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if i%10 == 9 {
				_ = primary.PutBatch([]BatchOp{
					{Table: "t", Key: fmt.Sprintf("b%d", i), Value: []byte("batch")},
					{Table: "u", Key: fmt.Sprintf("b%d", i), Value: []byte("batch")},
				})
			} else {
				_ = primary.Put("t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
			}
		}
	}()

	ch := make(chan struct{}, 1)
	cancel := primary.WatchAppends(ch)
	defer cancel()
	target := uint64(writes)
	for follower.ReplicationHead() < target {
		recs, _, err := primary.ReadRecords(follower.ReplicationHead()+1, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range recs {
			off := follower.ReplicationHead() + 1
			if err := follower.ApplyReplicatedRecord(body, off); err != nil {
				t.Fatal(err)
			}
		}
		if len(recs) == 0 {
			<-ch
		}
	}
	wg.Wait()
	// Drain any tail appended after the last read.
	for {
		recs, _, err := primary.ReadRecords(follower.ReplicationHead()+1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, body := range recs {
			if err := follower.ApplyReplicatedRecord(body, follower.ReplicationHead()+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareStores(t, follower, primary, "after concurrent stream")
}

// TestChaosReplRetentionAndCompaction exercises the two ways a follower's
// offset can fall off the retained log — the retention cap trimming old
// records and Compact dropping the whole log — both of which must answer
// ErrCompacted (the re-bootstrap signal), never silently missing records.
func TestChaosReplRetentionAndCompaction(t *testing.T) {
	s, err := Open(t.TempDir(), WithReplication(), WithReplicationRetain(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.ReadRecords(1, 0); err != ErrCompacted {
		t.Errorf("ReadRecords below retention = %v, want ErrCompacted", err)
	}
	base := s.ReplicationBase()
	if base != 6 {
		t.Errorf("base = %d, want 6 (10 records, retain 4)", base)
	}
	if recs, head, err := s.ReadRecords(base+1, 0); err != nil || len(recs) != 4 || head != 10 {
		t.Errorf("retained window = %d records head %d err %v, want 4/10/nil", len(recs), head, err)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.ReplicationBase() != s.ReplicationHead() {
		t.Errorf("after Compact base %d != head %d", s.ReplicationBase(), s.ReplicationHead())
	}
	if _, _, err := s.ReadRecords(s.ReplicationHead(), 0); err != ErrCompacted {
		t.Errorf("ReadRecords after Compact = %v, want ErrCompacted", err)
	}
	// New records stream normally from the new base.
	if err := s.Put("t", "after", []byte("compact")); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := s.ReadRecords(s.ReplicationHead(), 0); err != nil || len(recs) != 1 {
		t.Errorf("post-compact stream = %d records, err %v", len(recs), err)
	}
}

// TestChaosReplEpochBumpOnUncleanOpen proves a crashed primary cannot hand
// followers a silently different history: reopening without the clean
// flag bumps the epoch, and a clean close/open keeps it.
func TestChaosReplEpochBumpOnUncleanOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	epoch0 := s.ReplicationEpoch()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean close → clean flag → epoch preserved.
	s2, err := Open(dir, WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.ReplicationEpoch(); got != epoch0 {
		t.Errorf("epoch after clean reopen = %d, want %d", got, epoch0)
	}
	// Simulate a crash: put back the state file as the open store left it,
	// without the clean flag its Close adds.
	open, err := os.ReadFile(filepath.Join(dir, replStateName))
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := os.WriteFile(filepath.Join(dir, replStateName), open, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.ReplicationEpoch(); got != epoch0+1 {
		t.Errorf("epoch after unclean reopen = %d, want %d", got, epoch0+1)
	}
}

// TestCorruptReplStateRefusesOpen: a replication state file that does not
// parse fails Open with an error naming it. Reading it as epoch 0 would
// restart the epoch at 1, behind what followers already saw. A file that
// holds only an epoch, as one written before the clean flag existed, opens
// as unclean: one bump.
func TestCorruptReplStateRefusesOpen(t *testing.T) {
	for _, body := range []string{"garbage\n", "", "7\nclean\nextra\n", "7\ndirty\n"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, replStateName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, WithReplication())
		if err == nil {
			s.Close()
			t.Fatalf("Open accepted a %s holding %q", replStateName, body)
		}
		if !strings.Contains(err.Error(), replStateName) {
			t.Errorf("error %q does not name %s", err, replStateName)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, replStateName), []byte("7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.ReplicationEpoch(); got != 8 {
		t.Errorf("epoch from an epoch-only file = %d, want 8", got)
	}
}

// TestChaosReplResetFromExport bootstraps a dirty follower from a primary
// export and verifies the local state is replaced wholesale, positioned at
// the primary's head, and durable across reopen.
func TestChaosReplResetFromExport(t *testing.T) {
	primaryDir := t.TempDir()
	runReplScript(t, primaryDir)
	primary, err := Open(primaryDir, WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ops, head, _, err := primary.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f, err := Open(dir, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	// Divergent junk that must vanish in the reset.
	if err := f.Put("junk", "stale", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := f.ResetFromExport(ops, head); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get("junk", "stale"); ok {
		t.Error("pre-reset state survived the bootstrap")
	}
	compareStores(t, f, primary, "after reset")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	compareStores(t, f2, primary, "after reset and reopen")
}
