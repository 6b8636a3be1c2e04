package server

// Multi-corpus linking over the wire: cross-corpus steering through the
// ontology mappers.

import (
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/ontomap"
	"nnexus/internal/service"
)

// crossCorpusScheme builds a canonical MSC scheme whose area roots match
// what the built-in Wikipedia-category mapper translates to ("05", "03").
func crossCorpusScheme(t *testing.T) *classification.Scheme {
	t.Helper()
	s := classification.NewScheme(ontomap.SchemeMSC, 10)
	must := func(id, name, parent string) {
		if err := s.AddClass(id, name, parent); err != nil {
			t.Fatal(err)
		}
	}
	must("03", "Mathematical logic", "")
	must("03E20", "Set theory", "03")
	must("05", "Combinatorics", "")
	must("05C10", "Topological graph theory", "05")
	must("05C99", "Graph theory misc", "05")
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// Multi-corpus linking end to end over TCP: corpus A's
// (PlanetMath, MSC-classified) text is linked against corpus B's
// (Wikipedia, category-classified) concept map, and the homonym "graph"
// resolves by ontology-mapped steering — the Wikipedia candidate whose
// categories translate nearest to the source's MSC classes wins.
func TestCrossCorpusSteeringOverSocket(t *testing.T) {
	engine, err := core.NewEngine(core.Config{Scheme: crossCorpusScheme(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(service.New(engine), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, time.Second, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := engine.RegisterMapper(ontomap.NewWikipediaToMSC()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: ontomap.SchemeMSC, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDomain(corpus.Domain{
		Name: "en.wikipedia.org", URLTemplate: "http://wp/{title}", Scheme: ontomap.SchemeWikipediaCategory, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	add := func(cp, domain, title string, classes ...string) int64 {
		id, err := c.AddEntry(&corpus.Entry{
			Corpus: cp, Domain: domain, Title: title, Classes: classes,
		})
		if err != nil {
			t.Fatalf("AddEntry(%s/%s): %v", cp, title, err)
		}
		return id
	}
	pmPlanar := add("pm", "planetmath.org", "planar graph", "05C10")
	wikiGraphGT := add("wiki", "en.wikipedia.org", "graph", "Graph theory")
	wikiGraphSet := add("wiki", "en.wikipedia.org", "graph", "Set theory")

	res, err := c.LinkTextIn("pm", []string{"pm", "wiki"},
		"every planar graph is a graph", []string{"05C10"}, ontomap.SchemeMSC, "", "")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, l := range res.Links {
		got[l.Label] = l.Target
	}
	if got["planar graph"] != pmPlanar {
		t.Errorf("'planar graph' target = %d, want pm entry %d", got["planar graph"], pmPlanar)
	}
	if got["graph"] != wikiGraphGT {
		t.Errorf("'graph' target = %d, want ontology-steered wiki entry %d (not %d)",
			got["graph"], wikiGraphGT, wikiGraphSet)
	}

	// Self-linking pm sees no wiki concepts at all: "graph" must not link.
	res, err = c.LinkTextIn("pm", nil,
		"every planar graph is a graph", []string{"05C10"}, ontomap.SchemeMSC, "", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		if l.Label == "graph" {
			t.Errorf("self-linking pm leaked a wiki concept: %+v", l)
		}
	}
}
