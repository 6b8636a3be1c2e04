package core

import (
	"errors"
	"testing"

	"nnexus/internal/corpus"
	"nnexus/internal/storage"
)

// A write the store refuses stops the engine (fail-stop): the write's own
// reply and every later call's is one typed error, no later call shows the
// refused write, and Close saves no index file beside the log that lacks it.
// The store is closed under the engine, which refuses the write's record as
// a failed append or fsync would.
func TestRefusedCommitStopsTheEngine(t *testing.T) {
	planar := func() *corpus.Entry {
		return &corpus.Entry{Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
			Body: "A planar graph is a graph drawn in the plane."}
	}
	for _, tc := range []struct {
		name  string
		write func(e *Engine) error
	}{
		{"AddEntry", func(e *Engine) error {
			_, err := e.AddEntry(&corpus.Entry{Domain: "planetmath.org", Title: "refused", Body: "a planar graph"})
			return err
		}},
		{"UpdateEntry", func(e *Engine) error {
			entry, _ := e.Entry(2)
			entry.Title, entry.Body = "refused", "a planar graph"
			return e.UpdateEntry(entry)
		}},
		{"RemoveEntry", func(e *Engine) error { return e.RemoveEntry(1) }},
		{"AddDomain", func(e *Engine) error {
			return e.AddDomain(corpus.Domain{Name: "refused.org", URLTemplate: "http://refused/{id}"})
		}},
		{"SetPolicy", func(e *Engine) error { return e.SetPolicy(2, "forbid planar graph") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, store := openDisk(t, dir)
			if err := e.AddDomain(corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc"}); err != nil {
				t.Fatal(err)
			}
			for _, entry := range []*corpus.Entry{planar(), {Domain: "planetmath.org", Title: "graph", Classes: []string{"05C99"},
				Body: "Every planar graph is a graph."}} {
				if _, err := e.AddEntry(entry); err != nil {
					t.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			err := tc.write(e)
			if !errors.Is(err, ErrFailed) || !errors.Is(err, storage.ErrClosed) {
				t.Fatalf("the refused write returned %v, want ErrFailed wrapping the store's error", err)
			}
			if e.Failed() != err {
				t.Fatalf("Failed() = %v, want the refused write's error", e.Failed())
			}
			_, addErr := e.AddEntry(planar())
			entry2, _ := e.Entry(2)
			_, linkErr := e.LinkText("a planar graph here", LinkOptions{})
			_, entryErr := e.LinkEntry(2, LinkOptions{})
			_, _, cachedErr := e.LinkEntryCached(2)
			_, batchErr := e.LinkBatch([]string{"a planar graph"}, LinkOptions{}, 1)
			_, relinkErr := e.RelinkInvalidated()
			for name, err := range map[string]error{
				"AddEntry": addErr, "UpdateEntry": e.UpdateEntry(planar()), "RemoveEntry": e.RemoveEntry(2),
				"AddDomain": e.AddDomain(corpus.Domain{Name: "later.org"}), "SetPolicy": e.SetPolicy(2, ""),
				"RegisterMapper": e.RegisterMapper(nil), "ApplyReplicated": e.ApplyReplicated(nil),
				"ResetReplicated": e.ResetReplicated(nil), "LinkText": linkErr, "LinkEntry": entryErr,
				"LinkEntryCached": cachedErr, "LinkBatch": batchErr, "RelinkInvalidated": relinkErr,
			} {
				if err != e.Failed() {
					t.Errorf("%s after the refused write: %v, want %v", name, err, e.Failed())
				}
			}
			if _, ok := e.Entry(1); ok || entry2 != nil || e.Entries() != nil || e.NumEntries() != 0 ||
				e.Invalidated() != nil || e.Domains() != nil {
				t.Errorf("a stopped engine still shows its entries, flags or domains")
			}
			if _, ok := e.Domain("planetmath.org"); ok {
				t.Error("a stopped engine still shows its domains")
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			requireNoIndexFile(t, dir)
		})
	}
}
