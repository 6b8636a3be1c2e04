package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/conceptmap"
	"nnexus/internal/corpus"
	"nnexus/internal/storage"
	"nnexus/internal/tokenizer"
	"nnexus/internal/wire"
)

// snapshotGen is the default corpus's concept-map generation.
func snapshotGen(e *Engine) uint64 { return e.AutomatonInfo().SnapshotGeneration }

// TestOneGenerationPerMutation: a mutation publishes its concept-map changes
// as one generation however many entries it carries — an AddEntries batch, a
// single write, a removal, a write the store refuses — and a reopen's replay
// of the whole store is one generation too.
func TestOneGenerationPerMutation(t *testing.T) {
	dir := t.TempDir()
	e, store := openDisk(t, dir)
	if err := e.AddDomain(corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc"}); err != nil {
		t.Fatal(err)
	}
	step := func(what string, write func() error) {
		t.Helper()
		before := snapshotGen(e)
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := snapshotGen(e); got != before+1 {
			t.Fatalf("%s moved the concept map from generation %d to %d, want one generation", what, before, got)
		}
	}
	batch := make([]*corpus.Entry, 40)
	for i := range batch {
		batch[i] = &corpus.Entry{Domain: "planetmath.org", Title: fmt.Sprintf("widget %d", i), Body: "a widget"}
	}
	step("AddEntries of 40", func() error { _, err := e.AddEntries(batch); return err })
	step("AddEntry", func() error {
		_, err := e.AddEntry(&corpus.Entry{Domain: "planetmath.org", Title: "gadget", Body: "a widget 3"})
		return err
	})
	step("UpdateEntry", func() error {
		entry, _ := e.Entry(2)
		entry.Title = "sprocket"
		return e.UpdateEntry(entry)
	})
	step("RemoveEntry", func() error { return e.RemoveEntry(3) })
	closeDisk(t, e, store)

	e, store = openDisk(t, dir)
	if got := snapshotGen(e); got != 1 {
		t.Fatalf("a reopen replaying %d entries left the concept map at generation %d, want 1", e.NumEntries(), got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	before := snapshotGen(e)
	if _, err := e.AddEntry(&corpus.Entry{Domain: "planetmath.org", Title: "refused"}); !errors.Is(err, ErrFailed) {
		t.Fatalf("a write to a closed store returned %v, want ErrFailed", err)
	}
	if got := snapshotGen(e); got != before+1 {
		t.Fatalf("a refused write moved the concept map from generation %d to %d, want one generation", before, got)
	}
	// The refused write's generation was published, so the map takes the next.
	within(t, "a write to the map after a refused commit", func() {
		e.nsFor(e.DefaultCorpus()).cmap.AddObject(1000, []string{"later"})
	})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// within runs fn and fails the test if it has not returned in ten seconds:
// a mutation that leaves a concept-map writer open blocks the next forever.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return: the last mutation left its concept-map writer open", what)
	}
}

// TestReaderSeesBatchWhole: a reader that pins the concept map while
// AddEntries imports 256-entry batches sees each batch's labels all or not at
// all, never part of one. Run it under -race too.
func TestReaderSeesBatchWhole(t *testing.T) {
	e := newStoreless(t)
	if err := e.AddDomain(corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc"}); err != nil {
		t.Fatal(err)
	}
	const batches, size = 3, 256
	var titles []string
	for i := range batches * size {
		titles = append(titles, fmt.Sprintf("gadget%c%c%c", 'a'+i/100, 'a'+i/10%10, 'a'+i%10))
	}
	text := strings.Join(titles, " . ")
	cmap := e.nsFor(e.DefaultCorpus()).cmap
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		partial atomic.Value
		reads   atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var matches []conceptmap.Match
		for !stop.Load() {
			p := cmap.Pin()
			matches = p.ScanAllAppend(matches[:0], tokenizer.Tokenize(text))
			if len(matches)%size != 0 {
				partial.Store(len(matches))
			}
			reads.Add(1)
		}
	}()
	for b := range batches {
		entries := make([]*corpus.Entry, size)
		for i := range entries {
			entries[i] = &corpus.Entry{Domain: "planetmath.org", Title: titles[b*size+i]}
		}
		if _, err := e.AddEntries(entries); err != nil {
			t.Fatal(err)
		}
	}
	for after := reads.Load(); reads.Load() < after+2; { // a whole read after the last batch
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if n := partial.Load(); n != nil {
		t.Fatalf("a reader saw %d of the labels of %d-entry batches: part of a batch", n, size)
	}
	if got := len(cmap.Pin().ScanAllAppend(nil, tokenizer.Tokenize(text))); got != batches*size {
		t.Fatalf("after the import a scan found %d labels, want %d", got, batches*size)
	}
}

// TestReplicatedErrorPublishes: a replicated record that fails partway — its
// second entry is a JSON record — leaves the entry applied before the failure
// published in the concept map, and the next write proceeds. So does a
// snapshot bootstrap that fails the same way.
func TestReplicatedErrorPublishes(t *testing.T) {
	dom := corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc"}
	first := corpus.Entry{ID: 1, Corpus: corpus.DefaultCorpus, Domain: dom.Name, ExternalID: "1", Title: "planar graph"}
	ops := []storage.BatchOp{
		{Table: tableDomains, Key: dom.Name, Value: wire.AppendRecord(nil, &dom)},
		{Table: tableEntries, Key: entryKey(1), Value: wire.AppendRecord(nil, &first)},
		{Table: tableEntries, Key: entryKey(2), Value: []byte(`{"id":2,"domain":"planetmath.org","title":"graph"}`)},
	}
	for name, apply := range map[string]func(*Engine, []storage.BatchOp) error{
		"ApplyReplicated": (*Engine).ApplyReplicated,
		"ResetReplicated": (*Engine).ResetReplicated,
	} {
		t.Run(name, func(t *testing.T) {
			e := newStoreless(t)
			var jerr *JSONRecordError
			if err := apply(e, ops); !errors.As(err, &jerr) || jerr.Key != entryKey(2) {
				t.Fatalf("%s = %v, want a JSONRecordError for the second entry", name, err)
			}
			if got := e.nsFor(e.DefaultCorpus()).cmap.Lookup("planar graph"); len(got) != 1 || got[0] != 1 {
				t.Fatalf("after the failed record the map holds %v for the first entry's label, want [1]", got)
			}
			within(t, "the write after a failed record", func() {
				if _, err := e.AddEntry(&corpus.Entry{Domain: dom.Name, Title: "graph"}); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

// TestImportAllocs bounds the bytes one 256-entry AddEntries allocates per
// entry over a memory-only engine, whose write is the apply and invalidate
// stages alone: one concept-map generation for the batch, not one per entry
// (a generation's three bucket arrays alone are 6 KB). On a generated corpus
// the batch allocates 9.7–11.3 KB per entry, most of it the invalidation
// index's; a generation per entry took it to 16.8–18.4 KB.
func TestImportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race runtime")
	}
	cfg, dom, entries := generatedCorpus(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddDomain(dom); err != nil {
		t.Fatal(err)
	}
	for _, entry := range entries {
		entry.Corpus = ""
	}
	// The first batch fills the vocabulary and the label table; the second
	// is measured.
	if _, err := e.AddEntries(entries[:len(entries)-256]); err != nil {
		t.Fatal(err)
	}
	batch := entries[len(entries)-256:]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := e.AddEntries(batch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 14000
	if perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(batch)); perEntry > bound {
		t.Errorf("a %d-entry AddEntries allocates %.0f bytes per entry, want at most %d", len(batch), perEntry, bound)
	}
}
