package nnexus_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nnexus"
)

func newTestEngine(t *testing.T, cfg nnexus.Config) *nnexus.Engine {
	t.Helper()
	if cfg.Scheme == nil {
		cfg.Scheme = nnexus.SampleMSC(nnexus.DefaultBaseWeight)
	}
	e, err := nnexus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.AddDomain(nnexus.Domain{
		Name:        "planetmath.org",
		URLTemplate: "http://planetmath.org/?op=getobj&id={id}",
		Scheme:      "msc",
		Priority:    1,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPublicQuickstartFlow(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	id, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.LinkText("every planar graph embeds in the plane", nnexus.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 || res.Links[0].Target != id {
		t.Fatalf("links = %+v", res.Links)
	}
	if !strings.Contains(res.Output, `<a href=`) {
		t.Errorf("output = %q", res.Output)
	}
	if e.NumEntries() != 1 || e.NumConcepts() != 1 {
		t.Errorf("counts = %d entries, %d concepts", e.NumEntries(), e.NumConcepts())
	}
}

func TestPublicPersistence(t *testing.T) {
	dir := t.TempDir()
	e, err := nnexus.New(nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(nnexus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEntry(&nnexus.Entry{Domain: "planetmath.org", Title: "graph"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := nnexus.New(nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.NumEntries() != 1 {
		t.Fatalf("entries after reopen = %d", e2.NumEntries())
	}
	res, err := e2.LinkText("a graph", nnexus.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 {
		t.Errorf("links = %+v", res.Links)
	}
}

func TestPublicImportOAI(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	doc := `<records domain="planetmath.org" scheme="msc">
	  <record id="PG"><title>planar graph</title><class>05C10</class></record>
	  <record id="EN"><title>even number</title><concept>even</concept><class>11A51</class>
	    <policy>forbid even
allow even from 11-XX</policy></record>
	</records>`
	ids, err := e.ImportOAI(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	// Imported policy is live.
	res, err := e.LinkText("even now", nnexus.LinkOptions{SourceClasses: []string{"05C10"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 0 {
		t.Errorf("imported policy inactive: %+v", res.Links)
	}
}

func TestPublicServerClient(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	if _, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
	}); err != nil {
		t.Fatal(err)
	}
	srv, addr, err := e.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := nnexus.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	linked, err := c.LinkText("a planar graph", []string{"05C10"}, "msc", "", "markdown")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(linked.Output, "[planar graph](") {
		t.Errorf("output = %q", linked.Output)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPublicSchemeOWLRoundTrip(t *testing.T) {
	s := nnexus.SampleMSC(10)
	var buf bytes.Buffer
	if err := nnexus.SaveSchemeOWL(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := nnexus.LoadSchemeOWL(&buf, "msc", 10)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Errorf("len = %d, want %d", back.Len(), s.Len())
	}
}

func TestPublicCustomScheme(t *testing.T) {
	s := nnexus.NewScheme("custom", 2)
	if err := s.AddClass("top", "Top", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("leaf", "Leaf", "top"); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	e, err := nnexus.New(nnexus.Config{Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
}

func TestPublicMapper(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	m := nnexus.NewMapper("loc", "msc")
	m.Add("QA166", "05Cxx")
	if err := e.RegisterMapper(m); err != nil {
		t.Fatal(err)
	}
}

func TestPublicModesAndInvalidation(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{Format: nnexus.Markdown})
	id, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "first", Body: "mentions a widget here",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEntry(&nnexus.Entry{Domain: "planetmath.org", Title: "widget"}); err != nil {
		t.Fatal(err)
	}
	inv := e.Invalidated()
	if len(inv) != 1 || inv[0] != id {
		t.Fatalf("invalidated = %v", inv)
	}
	results, err := e.RelinkInvalidated()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(results[id].Output, "[widget](") {
		t.Errorf("output = %q", results[id].Output)
	}
}

func TestPublicEntryRemovalAndUpdate(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	entry := &nnexus.Entry{Domain: "planetmath.org", Title: "alpha"}
	id, err := e.AddEntry(entry)
	if err != nil {
		t.Fatal(err)
	}
	entry.Title = "beta"
	if err := e.UpdateEntry(entry); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Entry(id)
	if got.Title != "beta" {
		t.Errorf("title = %q", got.Title)
	}
	if err := e.SetPolicy(id, "forbid beta"); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveEntry(id); err != nil {
		t.Fatal(err)
	}
	if len(e.Entries()) != 0 {
		t.Errorf("entries = %v", e.Entries())
	}
}

func TestPublicSemanticNetwork(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	a, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "planar graph",
		Classes: []string{"05C10"}, Body: "relates to the plane",
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "plane",
		Classes: []string{"51A05"}, Body: "where a planar graph lives",
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.SemanticNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 2 || g.Edges() != 2 {
		t.Fatalf("nodes=%d edges=%d", g.Nodes(), g.Edges())
	}
	stats := g.Stats(1)
	if stats.LargestComponent != 2 || stats.Isolated != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if g.InDegree(a) != 1 || g.InDegree(b) != 1 {
		t.Errorf("degrees: %d %d", g.InDegree(a), g.InDegree(b))
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "demo"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "planar graph") {
		t.Errorf("DOT = %q", buf.String())
	}
}

// Exercise the remaining public accessors and passthroughs.
func TestPublicSurface(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	if d, ok := e.Domain("planetmath.org"); !ok || d.Priority != 1 {
		t.Errorf("Domain = %+v, %v", d, ok)
	}
	if got := e.Domains(); len(got) != 1 || got[0] != "planetmath.org" {
		t.Errorf("Domains = %v", got)
	}
	if e.Scheme() == nil || !e.Scheme().Has("05C10") {
		t.Error("Scheme accessor broken")
	}
	id, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "torus", Body: "a torus is round",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Entries(); len(got) != 1 || got[0] != id {
		t.Errorf("Entries = %v", got)
	}
	if _, ok := e.Entry(id); !ok {
		t.Error("Entry lookup failed")
	}
	res, err := e.LinkEntry(id, nnexus.LinkOptions{})
	if err != nil || res.Source != id {
		t.Errorf("LinkEntry = %+v, %v", res, err)
	}
	if _, _, err := e.LinkEntryCached(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.LinkEntryCached(id); err != nil {
		t.Fatal(err)
	}
	hits, misses := e.CacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache stats = %d/%d", hits, misses)
	}
	if results, err := e.RelinkInvalidatedParallel(2); err != nil || len(results) != 0 {
		t.Errorf("parallel relink = %v, %v", results, err)
	}
	if e.NumConcepts() != 1 {
		t.Errorf("concepts = %d", e.NumConcepts())
	}
}

// Engine with the LaTeX option through the public config.
func TestPublicAdvancedConfig(t *testing.T) {
	e, err := nnexus.New(nnexus.Config{
		Scheme: nnexus.SampleMSC(10),
		LaTeX:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.LinkText(`we study \emph{planar graphs} here`, nnexus.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 {
		t.Fatalf("LaTeX links = %+v", res.Links)
	}
}

// Keyword extraction through the public API.
func TestPublicKeywordExtractor(t *testing.T) {
	x := nnexus.NewKeywordExtractor()
	x.AddDocument("rings appear in every entry about rings")
	x.AddDocument("the artinian radical is rare")
	kws := x.Keywords("the artinian radical of a ring", 5)
	if len(kws) == 0 {
		t.Fatal("no keywords")
	}
	if s := x.OverlinkSuspects([]string{"ring"}, 0.5); len(s) != 1 {
		t.Errorf("suspects = %v", s)
	}
	if x.Docs() != 2 {
		t.Errorf("docs = %d", x.Docs())
	}
}

// MSC2000 through the public API.
func TestPublicMSC2000(t *testing.T) {
	s := nnexus.MSC2000(10)
	if !s.Has("05-XX") || !s.Has("68-XX") {
		t.Error("MSC2000 areas missing")
	}
	e, err := nnexus.New(nnexus.Config{Scheme: s})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
}

func TestPublicLoadSchemeOWLFileErrors(t *testing.T) {
	if _, err := nnexus.LoadSchemeOWLFile("/does/not/exist.owl", "x", 10); err == nil {
		t.Error("missing file accepted")
	}
}

// The Result JSON shape is a public contract for HTTP/wire clients; this
// pins the field names.
func TestResultJSONContract(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	if _, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.LinkText("a planar graph", nnexus.LinkOptions{SourceClasses: []string{"05C10"}})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"output"`, `"links"`, `"label"`, `"start"`, `"end"`, `"text"`,
		`"target"`, `"targetDomain"`, `"targetTitle"`, `"url"`,
		`"distance"`, `"candidates"`,
	} {
		if !strings.Contains(string(blob), key) {
			t.Errorf("JSON contract missing %s in %s", key, blob)
		}
	}
}

// QuorumAcks is only a durability guarantee when a quorum-acked write's
// replica set intersects every election majority (QuorumAcks+1+majority > N);
// New must reject configurations whose "quorum" word promises more than the
// election math delivers, and ones no follower count can ever satisfy.
func TestQuorumAcksValidation(t *testing.T) {
	base := func(peers ...string) nnexus.Config {
		return nnexus.Config{
			Scheme:             nnexus.SampleMSC(nnexus.DefaultBaseWeight),
			DataDir:            t.TempDir(),
			ClusterPeers:       peers,
			AdvertiseAddr:      "self:1",
			ReplicationPrimary: true,
		}
	}
	cases := []struct {
		name    string
		cfg     nnexus.Config
		wantErr bool
	}{
		{"3 nodes, k=1 at the floor", func() nnexus.Config { c := base("p1:1", "p2:1"); c.QuorumAcks = 1; return c }(), false},
		{"3 nodes, k=2 above the floor", func() nnexus.Config { c := base("p1:1", "p2:1"); c.QuorumAcks = 2; return c }(), false},
		{"5 nodes, k=1 below the floor", func() nnexus.Config { c := base("p1:1", "p2:1", "p3:1", "p4:1"); c.QuorumAcks = 1; return c }(), true},
		{"5 nodes, k=2 at the floor", func() nnexus.Config { c := base("p1:1", "p2:1", "p3:1", "p4:1"); c.QuorumAcks = 2; return c }(), false},
		{"3 nodes, k=3 unsatisfiable", func() nnexus.Config { c := base("p1:1", "p2:1"); c.QuorumAcks = 3; return c }(), true},
		{"no replication role", nnexus.Config{
			Scheme:     nnexus.SampleMSC(nnexus.DefaultBaseWeight),
			QuorumAcks: 1,
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := nnexus.New(tc.cfg)
			if e != nil {
				e.Close()
			}
			if tc.wantErr && err == nil {
				t.Fatal("New accepted a quorum configuration weaker than its guarantee")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("New rejected a valid quorum configuration: %v", err)
			}
		})
	}
}
