package core

import (
	"fmt"
	"strings"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
	"nnexus/internal/ontomap"
	"nnexus/internal/render"
	"nnexus/internal/storage"
)

// fig1Engine assembles the paper's Fig 1 example corpus on PlanetMath.
func fig1Engine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Scheme == nil {
		cfg.Scheme = classification.SampleMSC(10)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{
		Name:        "planetmath.org",
		URLTemplate: "http://planetmath.org/?op=getobj&id={id}",
		Scheme:      "msc",
		Priority:    1,
	}); err != nil {
		t.Fatal(err)
	}
	add := func(entry *corpus.Entry) int64 {
		entry.Domain = "planetmath.org"
		id, err := e.AddEntry(entry)
		if err != nil {
			t.Fatalf("AddEntry(%s): %v", entry.Title, err)
		}
		return id
	}
	add(&corpus.Entry{Title: "connected graph", Classes: []string{"05C40"}})                                                 // 1
	add(&corpus.Entry{Title: "planar graph", Classes: []string{"05C10"}})                                                    // 2
	add(&corpus.Entry{Title: "connected components", Concepts: []string{"connected component"}, Classes: []string{"05C40"}}) // 3
	add(&corpus.Entry{Title: "even number", Concepts: []string{"even"}, Classes: []string{"11A51"}})                         // 4
	add(&corpus.Entry{Title: "graph", Classes: []string{"05C99"}})                                                           // 5: graph theory
	add(&corpus.Entry{Title: "graph", Classes: []string{"03E20"}})                                                           // 6: graph of a function
	add(&corpus.Entry{Title: "plane", Classes: []string{"51A05"}})                                                           // 7
	return e
}

// The paper's running example: in the "plane graph" entry (class 05C40),
// "graph" must link to object 5 (05C99), not object 6 (03E20).
func TestPaperExampleSteering(t *testing.T) {
	e := fig1Engine(t, Config{})
	res, err := e.LinkText(
		"A plane graph is a planar graph which is drawn in the plane so that its edges have no crossings.",
		LinkOptions{SourceClasses: []string{"05C40"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Link{}
	for _, l := range res.Links {
		byLabel[l.Label] = l
	}
	g, ok := byLabel["graph"]
	if !ok {
		t.Fatalf("no link for 'graph': %+v", res.Links)
	}
	if g.Target != 5 {
		t.Errorf("'graph' linked to %d, want 5 (graph theory homonym)", g.Target)
	}
	if g.Candidates != 2 {
		t.Errorf("candidates = %d, want 2", g.Candidates)
	}
	if pg, ok := byLabel["planar graph"]; !ok || pg.Target != 2 {
		t.Errorf("'planar graph' link = %+v", pg)
	}
	if pl, ok := byLabel["plane"]; !ok || pl.Target != 7 {
		t.Errorf("'plane' link = %+v", pl)
	}
	if !strings.Contains(res.Output, `<a href="http://planetmath.org/?op=getobj&amp;id=5"`) {
		t.Errorf("output missing steering link: %s", res.Output)
	}
}

// Without steering, the lexical mode picks the lowest-ID homonym (object 5
// here as well, so use a source where steering matters: class 03Exx should
// flip the choice under steering but not under lexical).
func TestLexicalVsSteeredModes(t *testing.T) {
	e := fig1Engine(t, Config{})
	text := "the graph of a function"
	lex, err := e.LinkText(text, LinkOptions{SourceClasses: []string{"03E20"}, Mode: ModeLexical})
	if err != nil {
		t.Fatal(err)
	}
	steer, err := e.LinkText(text, LinkOptions{SourceClasses: []string{"03E20"}, Mode: ModeSteered})
	if err != nil {
		t.Fatal(err)
	}
	if lex.Links[0].Target != 5 {
		t.Errorf("lexical target = %d, want 5 (lowest ID)", lex.Links[0].Target)
	}
	if steer.Links[0].Target != 6 {
		t.Errorf("steered target = %d, want 6 (set-theory homonym)", steer.Links[0].Target)
	}
}

// The paper's overlinking example: "even" used in a non-mathematical sense
// must be suppressed by the even-number entry's linking policy, except for
// number-theory sources.
func TestPolicySuppressesOverlink(t *testing.T) {
	e := fig1Engine(t, Config{})
	if err := e.SetPolicy(4, "forbid even\nallow even from 11-XX"); err != nil {
		t.Fatal(err)
	}
	text := "even the simplest graph"
	res, err := e.LinkText(text, LinkOptions{SourceClasses: []string{"05C40"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		if l.Label == "even" {
			t.Errorf("'even' linked despite policy: %+v", l)
		}
	}
	foundSkip := false
	for _, s := range res.Skips {
		if s.Label == "even" && s.Reason == SkipPolicy {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Errorf("no policy skip recorded: %+v", res.Skips)
	}
	// A number-theory source may still link "even".
	res, err = e.LinkText(text, LinkOptions{SourceClasses: []string{"11A51"}})
	if err != nil {
		t.Fatal(err)
	}
	linked := false
	for _, l := range res.Links {
		if l.Label == "even" && l.Target == 4 {
			linked = true
		}
	}
	if !linked {
		t.Error("number-theory source could not link 'even'")
	}
	// In ModeSteered (no policies) the link reappears.
	res, err = e.LinkText(text, LinkOptions{SourceClasses: []string{"05C40"}, Mode: ModeSteered})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) == 0 || res.Links[0].Label != "even" {
		t.Errorf("steered-only mode suppressed the link: %+v", res.Links)
	}
}

// TestSetPolicyGovernsLinks: a policy set on an entry filters the links to
// it by the source's classes, an entry without one is linked from anywhere,
// a blank policy permits everything again, and a policy that does not parse
// is refused and changes nothing.
func TestSetPolicyGovernsLinks(t *testing.T) {
	e := fig1Engine(t, Config{})
	linksEven := func(classes ...string) bool {
		t.Helper()
		res, err := e.LinkText("even the planar graph", LinkOptions{SourceClasses: classes})
		if err != nil {
			t.Fatal(err)
		}
		var even, planar bool
		for _, l := range res.Links {
			even = even || l.Target == 4
			planar = planar || l.Target == 2
		}
		if !planar {
			t.Errorf("entry 2, which has no policy, was not linked from %v: %+v", classes, res.Links)
		}
		return even
	}
	if err := e.SetPolicy(4, "forbid even\nallow even from 11-XX"); err != nil {
		t.Fatal(err)
	}
	if linksEven("05C40") {
		t.Error("the policy did not forbid a graph-theory source")
	}
	if !linksEven("11A51") {
		t.Error("the policy forbade a number-theory source")
	}
	if err := e.SetPolicy(4, "   "); err != nil {
		t.Fatal(err)
	}
	if !linksEven("05C40") {
		t.Error("a blank policy still forbids")
	}
	if err := e.SetPolicy(4, "bogus directive"); err == nil {
		t.Error("a policy that does not parse was accepted")
	}
	if entry, _ := e.Entry(4); entry.Policy != "   " || !linksEven("05C40") {
		t.Errorf("a refused policy changed the entry: policy %q", entry.Policy)
	}
	if err := e.SetPolicy(99, "forbid even"); err == nil {
		t.Error("a policy for an unknown entry was accepted")
	}
}

// TestSetPolicyPerEntry: each entry's policy is its own and lives in the
// entry's Policy text: removing one leaves the other, and both survive a
// restart from the store, which holds nothing else of them.
func TestSetPolicyPerEntry(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e := fig1Engine(t, Config{Store: store})
	if err := e.SetPolicy(4, "forbid even"); err != nil {
		t.Fatal(err)
	}
	if err := e.SetPolicy(2, "forbid planar graph"); err != nil {
		t.Fatal(err)
	}
	if err := e.SetPolicy(4, ""); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewEngine(Config{Scheme: e.Scheme(), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{e, restarted} {
		if four, _ := e.Entry(4); four.Policy != "" {
			t.Errorf("entry 4 keeps policy %q", four.Policy)
		}
		if two, _ := e.Entry(2); two.Policy != "forbid planar graph" {
			t.Errorf("entry 2 has policy %q", two.Policy)
		}
		res, err := e.LinkText("even the planar graph", LinkOptions{SourceClasses: []string{"05C40"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Links) == 0 || res.Links[0].Target != 4 {
			t.Errorf("entry 4, its policy removed, was not linked: %+v", res.Links)
		}
		if len(res.Skips) != 1 || res.Skips[0].Label != "planar graph" || res.Skips[0].Reason != SkipPolicy {
			t.Errorf("entry 2's policy did not hold: skips %+v", res.Skips)
		}
	}
}

func TestFirstOccurrenceOnly(t *testing.T) {
	e := fig1Engine(t, Config{})
	res, err := e.LinkText("a graph and another graph and a third graph",
		LinkOptions{SourceClasses: []string{"05C99"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 {
		t.Fatalf("links = %+v, want exactly one", res.Links)
	}
	dups := 0
	for _, s := range res.Skips {
		if s.Reason == SkipDuplicate {
			dups++
		}
	}
	if dups != 2 {
		t.Errorf("duplicate skips = %d, want 2", dups)
	}
}

func TestLinkAllOccurrencesOption(t *testing.T) {
	e := fig1Engine(t, Config{LinkAllOccurrences: true})
	res, err := e.LinkText("a graph and another graph",
		LinkOptions{SourceClasses: []string{"05C99"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 2 {
		t.Fatalf("links = %d, want 2", len(res.Links))
	}
}

func TestSelfLinkExcluded(t *testing.T) {
	e := fig1Engine(t, Config{})
	// Entry 2 ("planar graph") mentions its own concept.
	entry, _ := e.Entry(2)
	entry.Body = "a planar graph is a graph drawn in the plane"
	if err := e.UpdateEntry(entry); err != nil {
		t.Fatal(err)
	}
	res, err := e.LinkEntry(2, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		if l.Target == 2 {
			t.Errorf("entry linked to itself: %+v", l)
		}
		if l.Label == "planar graph" {
			t.Errorf("own concept linked: %+v", l)
		}
	}
}

func TestLinkEntryUsesEntryClasses(t *testing.T) {
	e := fig1Engine(t, Config{})
	entry, _ := e.Entry(1) // connected graph, 05C40
	entry.Body = "a graph is connected when..."
	if err := e.UpdateEntry(entry); err != nil {
		t.Fatal(err)
	}
	res, err := e.LinkEntry(1, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) == 0 || res.Links[0].Target != 5 {
		t.Fatalf("links = %+v, want graph→5 via entry's own class", res.Links)
	}
	if res.Source != 1 {
		t.Errorf("source = %d", res.Source)
	}
}

func TestInvalidationOnAdd(t *testing.T) {
	e := fig1Engine(t, Config{})
	entry, _ := e.Entry(1)
	entry.Body = "every tree is a connected graph without cycles"
	if err := e.UpdateEntry(entry); err != nil {
		t.Fatal(err)
	}
	// Adding a new entry defining "tree" must invalidate entry 1 (its body
	// mentions "tree") and nothing else.
	id, err := e.AddEntry(&corpus.Entry{
		Domain: "planetmath.org", Title: "tree", Classes: []string{"05Cxx"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inv := e.Invalidated()
	if len(inv) != 1 || inv[0] != 1 {
		t.Fatalf("invalidated = %v, want [1]", inv)
	}
	// Re-linking entry 1 now links "tree" and clears the flag.
	res, err := e.LinkEntry(1, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range res.Links {
		if l.Label == "tree" && l.Target == id {
			found = true
		}
	}
	if !found {
		t.Errorf("re-link missed new concept: %+v", res.Links)
	}
	if len(e.Invalidated()) != 0 {
		t.Errorf("invalidation flag not cleared: %v", e.Invalidated())
	}
}

func TestRelinkInvalidated(t *testing.T) {
	e := fig1Engine(t, Config{})
	for _, id := range []int64{1, 2} {
		entry, _ := e.Entry(id)
		entry.Body = "mentions a hypercube here"
		if err := e.UpdateEntry(entry); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.AddEntry(&corpus.Entry{Domain: "planetmath.org", Title: "hypercube", Classes: []string{"05Cxx"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.Invalidated()); n != 2 {
		t.Fatalf("invalidated = %d, want 2", n)
	}
	results, err := e.RelinkInvalidated()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if len(e.Invalidated()) != 0 {
		t.Error("flags not cleared")
	}
}

func TestRemoveEntryInvalidatesReferrers(t *testing.T) {
	e := fig1Engine(t, Config{})
	entry, _ := e.Entry(1)
	entry.Body = "drawn in the plane"
	if err := e.UpdateEntry(entry); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LinkEntry(1, LinkOptions{}); err != nil { // clears flags
		t.Fatal(err)
	}
	if err := e.RemoveEntry(7); err != nil { // "plane"
		t.Fatal(err)
	}
	inv := e.Invalidated()
	found := false
	for _, id := range inv {
		if id == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("invalidated = %v, want to include 1", inv)
	}
	// And linking entry 1 no longer produces a "plane" link.
	res, err := e.LinkEntry(1, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		if l.Label == "plane" {
			t.Errorf("link to removed entry: %+v", l)
		}
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := fig1Engine(t, Config{Store: store})
	if err := e.SetPolicy(4, "forbid even"); err != nil {
		t.Fatal(err)
	}
	entry, _ := e.Entry(1)
	entry.Body = "graph body"
	if err := e.UpdateEntry(entry); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	e2, err := NewEngine(Config{Scheme: classification.SampleMSC(10), Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	if e2.NumEntries() != 7 {
		t.Fatalf("entries after restart = %d, want 7", e2.NumEntries())
	}
	if got := e2.Domains(); len(got) != 1 || got[0] != "planetmath.org" {
		t.Errorf("domains = %v", got)
	}
	// The policy survives: "even" is still suppressed.
	res, err := e2.LinkText("even so", LinkOptions{SourceClasses: []string{"05C40"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 0 {
		t.Errorf("policy lost after restart: %+v", res.Links)
	}
	// New entries continue from the persisted ID counter.
	id, err := e2.AddEntry(&corpus.Entry{Domain: "planetmath.org", Title: "fresh"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 {
		t.Errorf("next id = %d, want 8", id)
	}
	// Steering still works after rebuild.
	res, err = e2.LinkText("the graph", LinkOptions{SourceClasses: []string{"05C40"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 || res.Links[0].Target != 5 {
		t.Errorf("links after restart = %+v", res.Links)
	}
}

func TestMultiCorpusPriority(t *testing.T) {
	e := fig1Engine(t, Config{})
	if err := e.AddDomain(corpus.Domain{
		Name:        "mathworld.wolfram.com",
		URLTemplate: "http://mathworld.wolfram.com/{id}.html",
		Scheme:      "msc",
		Priority:    2, // PlanetMath preferred
	}); err != nil {
		t.Fatal(err)
	}
	// MathWorld also defines "planar graph" with the same class.
	mwID, err := e.AddEntry(&corpus.Entry{
		Domain: "mathworld.wolfram.com", ExternalID: "PlanarGraph",
		Title: "planar graph", Classes: []string{"05C10"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.LinkText("a planar graph", LinkOptions{SourceClasses: []string{"05C10"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 || res.Links[0].Target != 2 {
		t.Fatalf("priority tie-break failed: %+v", res.Links)
	}
	// Remove the PlanetMath entry: MathWorld becomes the target, with its
	// URL template.
	if err := e.RemoveEntry(2); err != nil {
		t.Fatal(err)
	}
	res, err = e.LinkText("a planar graph", LinkOptions{SourceClasses: []string{"05C10"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 || res.Links[0].Target != mwID {
		t.Fatalf("links = %+v", res.Links)
	}
	if !strings.Contains(res.Links[0].URL, "mathworld.wolfram.com/PlanarGraph.html") {
		t.Errorf("url = %q", res.Links[0].URL)
	}
}

func TestOntologyMappedForeignScheme(t *testing.T) {
	e := fig1Engine(t, Config{})
	if err := e.AddDomain(corpus.Domain{
		Name: "foreign.example", URLTemplate: "http://f/{id}", Scheme: "loc", Priority: 5,
	}); err != nil {
		t.Fatal(err)
	}
	m := ontomap.NewMapper("loc", "msc")
	m.Add("QA166", "05Cxx")
	if err := e.RegisterMapper(m); err != nil {
		t.Fatal(err)
	}
	// A foreign homonym for "graph" classified QA166 → maps into 05Cxx.
	foreignID, err := e.AddEntry(&corpus.Entry{
		Domain: "foreign.example", Title: "graph", Classes: []string{"QA166"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveEntry(5); err != nil { // drop PlanetMath's graph-theory homonym
		t.Fatal(err)
	}
	res, err := e.LinkText("the graph", LinkOptions{SourceClasses: []string{"05C10"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 || res.Links[0].Target != foreignID {
		t.Fatalf("links = %+v, want foreign entry %d to win via mapped class", res.Links, foreignID)
	}
	// Source classes in a foreign scheme are translated too.
	res, err = e.LinkText("the graph", LinkOptions{
		SourceClasses: []string{"QA166"}, SourceScheme: "loc",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 || res.Links[0].Target != foreignID {
		t.Fatalf("foreign-source links = %+v", res.Links)
	}
}

func TestMarkdownFormat(t *testing.T) {
	f := render.Markdown
	e := fig1Engine(t, Config{})
	res, err := e.LinkText("a planar graph", LinkOptions{Format: &f})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "[planar graph](http://planetmath.org/") {
		t.Errorf("output = %q", res.Output)
	}
}

func TestErrors(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("engine without scheme accepted")
	}
	unbuilt := classification.NewScheme("x", 10)
	if _, err := NewEngine(Config{Scheme: unbuilt}); err == nil {
		t.Error("unbuilt scheme accepted")
	}
	e := fig1Engine(t, Config{})
	if _, err := e.AddEntry(&corpus.Entry{Domain: "ghost.example", Title: "x"}); err == nil {
		t.Error("unknown domain accepted")
	}
	if _, err := e.AddEntry(&corpus.Entry{Domain: "planetmath.org"}); err == nil {
		t.Error("labelless entry accepted")
	}
	if _, err := e.AddEntry(&corpus.Entry{Domain: "planetmath.org", Title: "x", Policy: "bogus"}); err == nil {
		t.Error("bad policy accepted")
	}
	if err := e.UpdateEntry(&corpus.Entry{ID: 999, Domain: "planetmath.org", Title: "x"}); err == nil {
		t.Error("update of unknown entry accepted")
	}
	if err := e.RemoveEntry(999); err == nil {
		t.Error("remove of unknown entry accepted")
	}
	if err := e.SetPolicy(999, "forbid x"); err == nil {
		t.Error("policy for unknown entry accepted")
	}
	if _, err := e.LinkEntry(999, LinkOptions{}); err == nil {
		t.Error("link of unknown entry accepted")
	}
	if err := e.AddDomain(corpus.Domain{}); err == nil {
		t.Error("nameless domain accepted")
	}
}

func TestEntryReturnsCopy(t *testing.T) {
	e := fig1Engine(t, Config{})
	entry, _ := e.Entry(1)
	entry.Title = "mutated"
	again, _ := e.Entry(1)
	if again.Title != "connected graph" {
		t.Error("internal entry mutated through returned copy")
	}
}

func TestNumConceptsAndEntries(t *testing.T) {
	e := fig1Engine(t, Config{})
	if e.NumEntries() != 7 {
		t.Errorf("entries = %d", e.NumEntries())
	}
	// "graph" appears twice but is one label, and "connected components"
	// collapses with its singular synonym: 7 distinct labels total.
	if e.NumConcepts() != 7 {
		t.Errorf("concepts = %d, want 7", e.NumConcepts())
	}
	if got := e.Entries(); len(got) != 7 || got[0] != 1 || got[6] != 7 {
		t.Errorf("entry ids = %v", got)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeDefault: "default", ModeLexical: "lexical",
		ModeSteered: "steered", ModeSteeredPolicies: "steered+policies",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q", m, m.String())
		}
	}
}

func TestConcurrentLinkAndAdd(t *testing.T) {
	e := fig1Engine(t, Config{})
	done := make(chan error, 1)
	go func() {
		var firstErr error
		for i := 0; i < 100; i++ {
			_, err := e.AddEntry(&corpus.Entry{
				Domain: "planetmath.org",
				Title:  "concept" + string(rune('a'+i%26)),
			})
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		done <- firstErr
	}()
	for i := 0; i < 100; i++ {
		if _, err := e.LinkText("a planar graph in the plane", LinkOptions{SourceClasses: []string{"05C10"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestEscapedTargetRendersByteIdentical links a target whose URL template
// and title hold every byte an HTML attribute escapes: the open tag stored
// with the entry renders exactly what escaping per link rendered, Link keeps
// both raw, and Markdown output is unchanged.
func TestEscapedTargetRendersByteIdentical(t *testing.T) {
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{Name: "esc.example", URLTemplate: `http://e/?a=1&b="q"&id={id}<x>`}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEntry(&corpus.Entry{
		Domain: "esc.example", ExternalID: "P&G", Title: `R&D <"x">`, Concepts: []string{"pair graph"},
	}); err != nil {
		t.Fatal(err)
	}
	const text = "a pair graph here"
	res, err := e.LinkText(text, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const want = `a <a href="http://e/?a=1&amp;b=&quot;q&quot;&amp;id=P%26G&lt;x&gt;" title="R&amp;D &lt;&quot;x&quot;&gt;">pair graph</a> here`
	if res.Output != want {
		t.Fatalf("output\n%s\nwant\n%s", res.Output, want)
	}
	if len(res.Links) != 1 || res.Links[0].URL != `http://e/?a=1&b="q"&id=P%26G<x>` || res.Links[0].TargetTitle != `R&D <"x">` {
		t.Fatalf("links = %+v, want the raw URL and title", res.Links)
	}
	l := res.Links[0]
	if escaped, err := render.Apply(text, []render.Anchor{{Start: l.Start, End: l.End, URL: l.URL, Title: l.TargetTitle}}, render.HTML); err != nil || escaped != want {
		t.Fatalf("escaping fallback: %q, %v", escaped, err)
	}
	md := render.Markdown
	if res, err = e.LinkText(text, LinkOptions{Format: &md}); err != nil || res.Output != `a [pair graph](http://e/?a=1&b="q"&id=P%26G<x>) here` {
		t.Fatalf("markdown: %+v, %v", res, err)
	}
}

// TestRederiveRefreshesOpenTag re-registers a domain with a new URL template
// and registers a mapper for its scheme: each rederives the stored open tags,
// and a link renders the new tag, never a stale one.
func TestRederiveRefreshesOpenTag(t *testing.T) {
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	dom := corpus.Domain{Name: "tags.example", URLTemplate: "http://one/{id}", Scheme: "loc"}
	if err := e.AddDomain(dom); err != nil {
		t.Fatal(err)
	}
	id, err := e.AddEntry(&corpus.Entry{Domain: dom.Name, Title: "planar graph", Classes: []string{"QA166"}})
	if err != nil {
		t.Fatal(err)
	}
	link := func(step, wantTag string) {
		t.Helper()
		e.mu.RLock()
		for _, s := range e.entries {
			if want := render.OpenTag(s.url, s.Title); s.tag != want {
				t.Errorf("%s: entry %d holds tag %q, want %q", step, s.ID, s.tag, want)
			}
		}
		e.mu.RUnlock()
		res, err := e.LinkText("a planar graph", LinkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := "a " + wantTag + "planar graph</a>"; res.Output != want {
			t.Errorf("%s: output %q, want %q", step, res.Output, want)
		}
	}
	link("first template", fmt.Sprintf(`<a href="http://one/%d" title="planar graph">`, id))
	dom.URLTemplate = "http://two/?x=1&id={id}"
	if err := e.AddDomain(dom); err != nil {
		t.Fatal(err)
	}
	newTag := fmt.Sprintf(`<a href="http://two/?x=1&amp;id=%d" title="planar graph">`, id)
	link("new template", newTag)
	m := ontomap.NewMapper("loc", "msc")
	m.Add("QA166", "05Cxx")
	if err := e.RegisterMapper(m); err != nil {
		t.Fatal(err)
	}
	link("mapper", newTag)
}
