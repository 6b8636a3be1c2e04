package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
)

// twoCorpusEngine builds an engine holding two corpora: corpus "pm" defines
// graph-theory concepts, corpus "wiki" defines homonyms plus its own terms.
func twoCorpusEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{
		Name: "wikipedia.org", URLTemplate: "http://wp/{id}", Scheme: "msc", Priority: 2,
	}); err != nil {
		t.Fatal(err)
	}
	add := func(c, domain, title string, classes ...string) int64 {
		id, err := e.AddEntry(&corpus.Entry{
			Corpus: c, Domain: domain, Title: title, Classes: classes,
		})
		if err != nil {
			t.Fatalf("AddEntry(%s/%s): %v", c, title, err)
		}
		return id
	}
	add("pm", "planetmath.org", "planar graph", "05C10")      // 1
	add("pm", "planetmath.org", "connected graph", "05C40")   // 2
	add("wiki", "wikipedia.org", "planar graph", "05C10")     // 3: homonym
	add("wiki", "wikipedia.org", "chromatic number", "05C15") // 4: wiki-only
	return e
}

// Isolation: self-linking resolves inside the source corpus only — a label
// defined in both corpora links to the home corpus's entry, and a label
// defined only elsewhere does not link at all.
func TestCorpusNamespaceIsolation(t *testing.T) {
	e := twoCorpusEngine(t)
	text := "the planar graph has a chromatic number"

	res, err := e.LinkText(text, LinkOptions{SourceCorpus: "pm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 1 || res.Links[0].Target != 1 {
		t.Fatalf("pm self-link = %+v, want only target 1", res.Links)
	}

	res, err = e.LinkText(text, LinkOptions{SourceCorpus: "wiki"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, l := range res.Links {
		got[l.Label] = l.Target
	}
	if got["planar graph"] != 3 || got["chromatic number"] != 4 {
		t.Fatalf("wiki self-link = %+v, want targets 3 and 4", res.Links)
	}

	// The default namespace exists from construction; the corpora joined it.
	names := fmt.Sprint(e.Corpora())
	if names != "[default pm wiki]" {
		t.Errorf("Corpora() = %s, want [default pm wiki]", names)
	}
	pm := 0
	for _, id := range e.Entries() {
		if entry, _ := e.Entry(id); entry.Corpus == "pm" {
			pm++
		}
	}
	if pm != 2 {
		t.Errorf("corpus pm holds %d entries, want 2", pm)
	}
}

// Cross-corpus steering: with an ordered target list the scan unions the
// target corpora's concept maps, and an equal-span candidate tie resolves in
// target order (earlier target corpus wins).
func TestCrossCorpusTargetOrder(t *testing.T) {
	e := twoCorpusEngine(t)
	text := "a planar graph and its chromatic number"

	// pm steering into wiki: the wiki-only label links, and the shared label
	// resolves to pm (first target) despite wiki defining it too.
	res, err := e.LinkText(text, LinkOptions{
		SourceCorpus:  "pm",
		TargetCorpora: []string{"pm", "wiki"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, l := range res.Links {
		got[l.Label] = l.Target
	}
	if got["planar graph"] != 1 {
		t.Errorf("shared label target = %d, want 1 (first target corpus)", got["planar graph"])
	}
	if got["chromatic number"] != 4 {
		t.Errorf("wiki-only label target = %d, want 4", got["chromatic number"])
	}

	// Reversed order flips the shared-label winner.
	res, err = e.LinkText(text, LinkOptions{
		SourceCorpus:  "pm",
		TargetCorpora: []string{"wiki", "pm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		if l.Label == "planar graph" && l.Target != 3 {
			t.Errorf("reversed target order: shared label target = %d, want 3", l.Target)
		}
	}

	// A repeated name is the same policy as its first occurrences: the
	// corpus is scanned once and its candidates are reported once.
	link := func(targets ...string) string {
		t.Helper()
		res, err := e.LinkText(text, LinkOptions{SourceCorpus: "pm", TargetCorpora: targets})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := json.Marshal(struct {
			Links []Link
			Skips []Skip
		}{res.Links, res.Skips})
		return string(out)
	}
	want := link("pm", "wiki")
	for _, targets := range [][]string{
		{"pm", "pm", "wiki"},
		{"pm", "wiki", "pm", "wiki"},
		{"pm", "pm", "pm", "pm", "wiki", "wiki"},
	} {
		if got := link(targets...); got != want {
			t.Errorf("targets %v:\n got %s\nwant %s (as [pm wiki])", targets, got, want)
		}
	}
	if one, twice := link("wiki"), link("wiki", "wiki"); one != twice {
		t.Errorf("targets [wiki wiki]:\n got %s\nwant %s (as [wiki])", twice, one)
	}
}

// fuzzCorpusWords is the label vocabulary the equivalence fuzzer builds
// entries from; small enough that texts and titles collide often.
var fuzzCorpusWords = []string{
	"graph", "planar", "connected", "even", "number", "plane",
	"component", "chromatic", "tree", "cycle",
}

// buildFuzzEntries derives a deterministic little corpus from the fuzz seed.
func buildFuzzEntries(seed string) ([]*corpus.Entry, string) {
	h := fnv.New64a()
	h.Write([]byte(seed))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	classes := []string{"05C10", "05C40", "05C99", "03E20", "11A51", "51A05"}
	n := 2 + rng.Intn(6)
	entries := make([]*corpus.Entry, 0, n)
	for i := 0; i < n; i++ {
		w1 := fuzzCorpusWords[rng.Intn(len(fuzzCorpusWords))]
		w2 := fuzzCorpusWords[rng.Intn(len(fuzzCorpusWords))]
		entries = append(entries, &corpus.Entry{
			Domain:  "planetmath.org",
			Title:   w1 + " " + w2,
			Classes: []string{classes[rng.Intn(len(classes))]},
		})
	}
	var text string
	for i := 0; i < 8+rng.Intn(8); i++ {
		text += fuzzCorpusWords[rng.Intn(len(fuzzCorpusWords))] + " "
	}
	return entries, text
}

// FuzzTenantLinkEquivalence is the differential harness corpus namespaces
// must pass: a corpus-oblivious engine (no corpus named anywhere — the
// pre-namespace API surface) and a corpus-qualified engine holding the same
// data in the default namespace plus a decoy corpus must produce
// bit-identical link results for default-corpus requests. Any divergence
// means namespacing leaked into single-corpus semantics.
func FuzzTenantLinkEquivalence(f *testing.F) {
	f.Add("seed")
	f.Add("planar graph connected")
	f.Add("x")
	f.Add("repeated target graph graph")
	f.Fuzz(func(t *testing.T, seed string) {
		entries, text := buildFuzzEntries(seed)

		plain, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
		if err != nil {
			t.Fatal(err)
		}
		tenanted, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Engine{plain, tenanted} {
			if err := e.AddDomain(corpus.Domain{
				Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, entry := range entries {
			cp := *entry
			if _, err := plain.AddEntry(&cp); err != nil {
				t.Fatal(err)
			}
			cq := *entry
			cq.Corpus = corpus.DefaultCorpus
			if _, err := tenanted.AddEntry(&cq); err != nil {
				t.Fatal(err)
			}
		}
		// Decoy tenant: IDs beyond the shared prefix, so the default
		// namespace's entries and tie-breaks are untouched.
		for i, w := range fuzzCorpusWords[:3] {
			if _, err := tenanted.AddEntry(&corpus.Entry{
				Corpus: "decoy", Domain: "planetmath.org",
				Title: w, Classes: []string{"05C99"}, Body: fmt.Sprintf("decoy %d", i),
			}); err != nil {
				t.Fatal(err)
			}
		}

		for _, opts := range []LinkOptions{
			{},
			{SourceClasses: []string{"05C40"}},
			{SourceCorpus: corpus.DefaultCorpus, TargetCorpora: []string{corpus.DefaultCorpus}},
			{TargetCorpora: []string{corpus.DefaultCorpus, corpus.DefaultCorpus, "nowhere", corpus.DefaultCorpus}},
		} {
			a, err := plain.LinkText(text, LinkOptions{SourceClasses: opts.SourceClasses})
			if err != nil {
				t.Fatal(err)
			}
			b, err := tenanted.LinkText(text, opts)
			if err != nil {
				t.Fatal(err)
			}
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if string(ja) != string(jb) {
				t.Fatalf("single-corpus and tenant engines diverge (seed %q, opts %+v):\nplain:    %s\ntenanted: %s",
					seed, opts, ja, jb)
			}
		}
	})
}

// Concurrent multi-corpus traffic: writers grow several corpora while
// linkers read them, under the race detector. Catches lock-ordering and
// snapshot bugs in the per-namespace maps.
func TestConcurrentMultiCorpusStress(t *testing.T) {
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	corpora := []string{"pm", "wiki", "mathworld", "default"}
	const perCorpus = 30
	var wg sync.WaitGroup
	errs := make(chan error, len(corpora)*2)
	for ci, c := range corpora {
		wg.Add(2)
		go func(ci int, c string) { // writer
			defer wg.Done()
			for i := 0; i < perCorpus; i++ {
				_, err := e.AddEntry(&corpus.Entry{
					Corpus: c, Domain: "planetmath.org",
					Title:   fmt.Sprintf("%s concept %d", c, i),
					Classes: []string{"05C99"},
					Body:    fmt.Sprintf("body %d mentions graph", i),
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(ci, c)
		go func(c string) { // linker
			defer wg.Done()
			for i := 0; i < perCorpus; i++ {
				_, err := e.LinkText(
					fmt.Sprintf("%s concept %d and a graph", c, i%7),
					LinkOptions{SourceCorpus: c, TargetCorpora: []string{c, "pm"}},
				)
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	held := map[string]int{}
	for _, id := range e.Entries() {
		entry, _ := e.Entry(id)
		held[entry.Corpus]++
	}
	for _, c := range corpora {
		if held[c] != perCorpus {
			t.Errorf("corpus %s holds %d entries, want %d", c, held[c], perCorpus)
		}
	}
	// After the storm every corpus still self-links inside its own walls.
	res, err := e.LinkText("pm concept 3", LinkOptions{SourceCorpus: "pm"})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		if entry, _ := e.Entry(l.Target); entry.Corpus != "pm" {
			t.Errorf("pm self-link escaped to corpus %s (entry %d)", entry.Corpus, l.Target)
		}
	}
}
