package core

// The write sequence against the gaps between a link's pin and what it
// leaves behind: a flag raised by a write the link did not see, and a
// rendering of a body rewritten, or of a URL re-templated, while it ran.
// White-box: each test stops a link between its phases and lands the write
// there.

import (
	"strconv"
	"strings"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
	"nnexus/internal/storage"
	"nnexus/internal/wire"
)

func writeSeqEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{
		Name: "d", URLTemplate: "http://d/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func addTestEntry(t *testing.T, e *Engine, title, body string) int64 {
	t.Helper()
	id, err := e.AddEntry(&corpus.Entry{Domain: "d", Title: title, Classes: []string{"05C10"}, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestRelinkKeepsFlagOfUnseenWrite: a relink plans and scans an entry, then
// a write adds a label the entry's body mentions, then the relink renders
// and clears. The render never saw the label, so the write's flag must
// survive the clear, whether the write raised it or found it standing.
func TestRelinkKeepsFlagOfUnseenWrite(t *testing.T) {
	for _, standing := range []bool{false, true} {
		t.Run(map[bool]string{false: "raised", true: "standing"}[standing], func(t *testing.T) {
			e := writeSeqEngine(t)
			id := addTestEntry(t, e, "planar graph", "a note about a field and a ring")
			if standing {
				addTestEntry(t, e, "ring", "a set with two operations")
			}
			if got := len(e.Invalidated()); got != map[bool]int{false: 0, true: 1}[standing] {
				t.Fatalf("%d flagged before the run", got)
			}

			// The relink's first half, as RelinkBatch runs it: read the
			// sequence, plan, pin and scan.
			seq := e.seq.Load()
			run := e.getRun()
			defer putRun(run)
			var body string
			var err error
			if run.plan, body, err = e.planEntry(id, LinkOptions{}); err != nil {
				t.Fatal(err)
			}
			e.scanText(run, body)

			addTestEntry(t, e, "field", "a ring whose nonzero elements are units")

			e.captureView(run)
			res, err := e.finish(run)
			if err != nil {
				t.Fatal(err)
			}
			e.relinked(seq, id)
			for _, l := range res.Links {
				if l.Label == "field" {
					t.Fatalf("the run linked %v: its pin saw the later label", l)
				}
			}
			if got := e.Invalidated(); len(got) != 1 || got[0] != id {
				t.Fatalf("invalidated = %v after the relink, want [%d]: the clear dropped the flag of a write it did not see", got, id)
			}
		})
	}
}

// TestReplicaRelinkKeepsFlagOfUnseenRecord is the relink case on a replica,
// whose flags arrive with the primary's records: a record adding a label
// that an already-flagged entry mentions carries no flag for it (the
// primary's flag stands), and a local relink that pinned before the record
// must still leave the entry flagged.
func TestReplicaRelinkKeepsFlagOfUnseenRecord(t *testing.T) {
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	put := func(entry *corpus.Entry, flags ...int64) {
		t.Helper()
		ops := []storage.BatchOp{{Table: tableEntries, Key: entryKey(entry.ID), Value: wire.AppendRecord(nil, entry)}}
		for _, id := range flags {
			ops = append(ops, storage.BatchOp{Table: tableInvalid, Key: strconv.FormatInt(id, 10), Value: []byte("1")})
		}
		if err := e.ApplyReplicated(ops); err != nil {
			t.Fatal(err)
		}
	}
	domain := wire.AppendRecord(nil, &corpus.Domain{Name: "d", URLTemplate: "http://d/{id}", Scheme: "msc", Priority: 1})
	if err := e.ApplyReplicated([]storage.BatchOp{{Table: tableDomains, Key: "d", Value: domain}}); err != nil {
		t.Fatal(err)
	}
	entry := func(id int64, title, body string) *corpus.Entry {
		return &corpus.Entry{ID: id, Domain: "d", Title: title, Classes: []string{"05C10"}, Body: body}
	}
	put(entry(1, "planar graph", "a note about a field and a ring"))
	put(entry(2, "ring", "a set with two operations"), 1)
	// A rendering in the cache, so the record below is walked as on a live
	// replica.
	if _, _, err := e.LinkEntryCached(2); err != nil {
		t.Fatal(err)
	}

	seq := e.seq.Load()
	run := e.getRun()
	defer putRun(run)
	var body string
	if run.plan, body, err = e.planEntry(1, LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	e.scanText(run, body)

	put(entry(3, "field", "a ring whose nonzero elements are units"))

	e.captureView(run)
	if _, err := e.finish(run); err != nil {
		t.Fatal(err)
	}
	e.relinked(seq, 1)
	if got := e.Invalidated(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("invalidated = %v after the relink, want [1]: the clear dropped a flag the record stood behind", got)
	}
}

// TestCachedRenderingOfRewrittenBodyIsDropped: a cached link renders an
// entry, then the entry's body is rewritten, then the rendering is stored.
// The next cached link must render the new body, not serve the old one.
func TestCachedRenderingOfRewrittenBodyIsDropped(t *testing.T) {
	e := writeSeqEngine(t)
	addTestEntry(t, e, "graph", "vertices and edges")
	id := addTestEntry(t, e, "planar graph", "the old body about a graph")

	res, seq, err := e.linkEntry(id, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.UpdateEntry(&corpus.Entry{ID: id, Domain: "d", Title: "planar graph",
		Classes: []string{"05C10"}, Body: "the new body about a graph"}); err != nil {
		t.Fatal(err)
	}
	e.cache(id, seq, res)

	got, cached, err := e.LinkEntryCached(id)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got.Output, "old body") || !strings.Contains(got.Output, "new body") {
		t.Fatalf("LinkEntryCached = %q (cached %v), want the rewritten body", got.Output, cached)
	}
}

// TestDomainChangeDropsCachedRenderings: a cached rendering links an entry
// under its domain's URL template, then the domain is registered again with
// a new template. The next cached link must render the new URL.
func TestDomainChangeDropsCachedRenderings(t *testing.T) {
	e := writeSeqEngine(t)
	addTestEntry(t, e, "graph", "vertices and edges")
	id := addTestEntry(t, e, "planar graph", "a graph drawn without crossings")
	if _, _, err := e.LinkEntryCached(id); err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{Name: "d", URLTemplate: "http://new/{id}", Scheme: "msc", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	fresh, err := e.LinkEntry(id, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fresh.Output, "http://new/1") {
		t.Fatalf("LinkEntry = %q, want a link to http://new/1", fresh.Output)
	}
	got, cached, err := e.LinkEntryCached(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != fresh.Output {
		t.Fatalf("LinkEntryCached = %q (cached %v), want %q", got.Output, cached, fresh.Output)
	}
}

// TestRenderingPlannedBeforeDomainChangeIsNotCached: a link renders an entry,
// then the domain's URL template changes, then the rendering is stored. The
// next cached link must render the new URL, not serve the old one.
func TestRenderingPlannedBeforeDomainChangeIsNotCached(t *testing.T) {
	e := writeSeqEngine(t)
	addTestEntry(t, e, "graph", "vertices and edges")
	id := addTestEntry(t, e, "planar graph", "a graph drawn without crossings")

	res, seq, err := e.linkEntry(id, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{Name: "d", URLTemplate: "http://new/{id}", Scheme: "msc", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	e.cache(id, seq, res)

	got, cached, err := e.LinkEntryCached(id)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got.Output, "http://d/1") || !strings.Contains(got.Output, "http://new/1") {
		t.Fatalf("LinkEntryCached = %q (cached %v), want a link to http://new/1", got.Output, cached)
	}
}
