package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nnexus"
	"nnexus/internal/corpus"
)

// A restart against the same data directory replays the wiki's domain from
// the store and must not write it again: booting used to append one more
// addDomain record to the WAL every time.
func TestSecondBootAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	boot := func() int64 {
		t.Helper()
		engine, revisions, wiki, err := open(nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir}, "planetmath.local")
		if err != nil {
			t.Fatal(err)
		}
		if engine.NumEntries() == 0 {
			if _, err := wiki.Save(0, "alice", "created", &corpus.Entry{Title: "group", Body: "v1"}); err != nil {
				t.Fatal(err)
			}
		}
		if revs := wiki.Revisions(1); len(revs) != 1 || revs[0].Author != "alice" {
			t.Fatalf("revisions of entry 1 = %+v", revs)
		}
		if err := errors.Join(revisions.Close(), engine.Close()); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	first := boot()
	if first == 0 {
		t.Fatal("the first boot left an empty wal.log: nothing to compare")
	}
	if second := boot(); second != first {
		t.Fatalf("wal.log grew from %d to %d bytes across a restart that wrote nothing", first, second)
	}
}
