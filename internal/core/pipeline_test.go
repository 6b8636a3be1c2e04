package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/conceptmap"
	"nnexus/internal/corpus"
	"nnexus/internal/render"
	"nnexus/internal/telemetry"
	"nnexus/internal/tokenizer"
	"nnexus/internal/workload"
)

// linked is what the entry points must agree on. Result.Source is left out:
// only the entry-link paths set it.
type linked struct {
	Output string
	Links  []Link
	Skips  []Skip
}

func linkedOf(res *Result) linked { return linked{res.Output, res.Links, res.Skips} }

// fig1Corpus is the router fixture (Fig 1 plus overlapping phrases and the
// "wiki" namespace) with bodies, so its entries can be linked as entries.
// Entry 2's body invokes only its own label: every match is a self skip.
func fig1Corpus() (Config, corpus.Domain, []*corpus.Entry) {
	entries := routerFixtureEntries()
	for i, e := range entries {
		e.Domain = "planetmath.org"
		e.Body = equivalenceTexts[i%len(equivalenceTexts)]
	}
	entries[1].Body = "Every planar graph is a planar graph."
	return Config{Scheme: classification.SampleMSC(10)}, corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://planetmath.org/?op=getobj&id={id}", Scheme: "msc", Priority: 1,
	}, entries
}

// generatedCorpus is a 300-entry synthetic corpus, every third entry moved
// to the "wiki" namespace so cross-corpus policies have spans to merge.
func generatedCorpus(t *testing.T) (Config, corpus.Domain, []*corpus.Entry) {
	c, err := workload.Generate(workload.DefaultParams(300))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]*corpus.Entry, len(c.Entries))
	for i, ge := range c.Entries {
		e := *ge.Entry
		e.Domain = "planetmath.example"
		if i%3 == 0 {
			e.Corpus = "wiki"
		}
		entries[i] = &e
	}
	return Config{Scheme: c.Scheme}, corpusDomain(), entries
}

// TestEntryPointEquivalence is the differential contract of the one Fig 2
// pipeline: for the same text and options, every entry point — LinkText,
// LinkBatch, LinkEntry, RelinkBatch, and the shard router over 1 and 3 local
// shards — produces the same output, links and skips.
func TestEntryPointEquivalence(t *testing.T) {
	fig1Cfg, fig1Dom, fig1Entries := fig1Corpus()
	genCfg, genDom, genEntries := generatedCorpus(t)
	corpora := []struct {
		name    string
		cfg     Config
		dom     corpus.Domain
		entries []*corpus.Entry
		sample  []int64 // entries whose bodies are linked
	}{
		{"fig1", fig1Cfg, fig1Dom, fig1Entries, []int64{1, 2, 3, 5, 9, 13, 14, 16}},
		{"generated", genCfg, genDom, genEntries, []int64{1, 2, 7, 42, 99, 150, 151, 298, 300}},
	}
	// policies are the link policies under test; the rest of each run's
	// options (classes, scheme, exclude, source corpus) are what LinkEntry
	// derives from the entry, spelled out for the free-text entry points.
	policies := []struct {
		name    string
		targets []string
	}{
		{"single-target", nil},
		{"multi-target", []string{"wiki", "default"}},
	}
	for _, c := range corpora {
		for _, linkAll := range []bool{false, true} {
			cfg := c.cfg
			cfg.LinkAllOccurrences = linkAll
			single, router1, _ := buildFleet(t, 1, cfg, c.dom, c.entries)
			_, router3, _ := buildFleet(t, 3, cfg, c.dom, c.entries)
			relinked, err := single.RelinkBatch(c.sample, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range policies {
				t.Run(fmt.Sprintf("%s/%s/linkAll=%v", c.name, pol.name, linkAll), func(t *testing.T) {
					for _, id := range c.sample {
						entry := c.entries[id-1]
						opts := LinkOptions{
							SourceClasses: entry.Classes,
							SourceScheme:  c.dom.Scheme,
							SourceCorpus:  corpus.CorpusOrDefault(entry.Corpus),
							TargetCorpora: pol.targets,
							ExcludeObject: id,
						}
						res, err := single.LinkText(entry.Body, opts)
						if err != nil {
							t.Fatal(err)
						}
						want := linkedOf(res)
						check := func(entryPoint string, got *Result, err error) {
							t.Helper()
							if err != nil {
								t.Fatalf("entry %d: %s: %v", id, entryPoint, err)
							}
							if !reflect.DeepEqual(linkedOf(got), want) {
								t.Errorf("entry %d: %s diverged from LinkText\n%s: %+v\nLinkText: %+v", id, entryPoint, entryPoint, linkedOf(got), want)
							}
						}

						batch, err := single.LinkBatch([]string{"", entry.Body, entry.Title}, opts, 2)
						if err != nil {
							t.Fatal(err)
						}
						check("LinkBatch", batch[1], nil)
						got, err := single.LinkEntry(id, LinkOptions{TargetCorpora: pol.targets})
						check("LinkEntry", got, err)
						if pol.targets == nil {
							check("RelinkBatch", relinked[id], nil)
						}
						got, err = router1.LinkText(entry.Body, opts)
						check("ShardRouter(1)", got, err)
						got, err = router3.LinkText(entry.Body, opts)
						check("ShardRouter(3)", got, err)
					}
				})
			}
		}
	}

	// The sample must exercise what the cases claim to.
	single, _, _ := buildFleet(t, 1, fig1Cfg, fig1Dom, fig1Entries)
	res, err := single.LinkEntry(2, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 0 || len(res.Skips) != 2 || res.Skips[0].Reason != SkipSelf || res.Skips[1].Reason != SkipSelf {
		t.Errorf("entry 2 should only ever match itself: %+v", res)
	}
}

// TestRelinkTelemetryMatchesResults pins the observe step of the batch and
// relink paths to the one LinkText uses: after RelinkBatch the link, skip
// and per-corpus counters have advanced by exactly the sums over the
// returned results.
func TestRelinkTelemetryMatchesResults(t *testing.T) {
	cfg, dom, entries := fig1Corpus()
	e, _, _ := buildFleet(t, 1, cfg, dom, entries)
	if err := e.SetPolicy(4, "forbid even"); err != nil {
		t.Fatal(err)
	}
	corpusLinks := func(name string) int64 { return e.tel.corpusLinks(name).Value() }
	before := map[string]int64{
		"links":       e.tel.linksCreated.Value(),
		SkipPolicy:    e.tel.skipPolicy.Value(),
		SkipSelf:      e.tel.skipSelf.Value(),
		SkipDuplicate: e.tel.skipDuplicate.Value(),
		"default":     corpusLinks("default"),
		"wiki":        corpusLinks("wiki"),
		"texts":       e.tel.opLinkText.Value(),
	}
	results, err := e.RelinkBatch(e.Entries(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"texts": int64(len(results))}
	for id, res := range results {
		want["links"] += int64(len(res.Links))
		want[corpus.CorpusOrDefault(entries[id-1].Corpus)] += int64(len(res.Links))
		for _, s := range res.Skips {
			want[s.Reason]++
		}
	}
	got := map[string]int64{
		"links":       e.tel.linksCreated.Value(),
		SkipPolicy:    e.tel.skipPolicy.Value(),
		SkipSelf:      e.tel.skipSelf.Value(),
		SkipDuplicate: e.tel.skipDuplicate.Value(),
		"default":     corpusLinks("default"),
		"wiki":        corpusLinks("wiki"),
		"texts":       e.tel.opLinkText.Value(),
	}
	for k := range got {
		if got[k]-before[k] != want[k] {
			t.Errorf("%s advanced by %d across RelinkBatch, results sum to %d", k, got[k]-before[k], want[k])
		}
	}
	if want["links"] == 0 || want[SkipDuplicate] == 0 || want[SkipSelf] == 0 || want[SkipPolicy] == 0 || want["wiki"] == 0 {
		t.Errorf("fixture no longer exercises every counter: %v", want)
	}
}

// documentEngine is an engine over the 300-entry generated corpus (one
// namespace) and a ~5 KB document of eight of its bodies, to be linked under
// the classes of the first: the shape of the benchmark's document_read op.
func documentEngine(t *testing.T) (e *Engine, doc string, classes []string) {
	cfg, dom, entries := generatedCorpus(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.AddDomain(dom); err != nil {
		t.Fatal(err)
	}
	for _, entry := range entries {
		entry.Corpus = ""
		if _, err := e.AddEntry(entry); err != nil {
			t.Fatal(err)
		}
	}
	var bodies []string
	for i := 0; i < 8; i++ {
		bodies = append(bodies, entries[37*i+5].Body)
	}
	return e, strings.Join(bodies, "\n\n"), entries[5].Classes
}

// TestLinkTextDocumentAllocs is the allocation contract of a link call
// (DESIGN.md "The Fig 2 pipeline"): the result, its output, its Links and
// Skips, the plan's source class indexes, and a Norm for each token that
// case folding or singularising changed — 3 + 2 per link bounds it for a
// 5 KB document, with telemetry on, as the benchmark runs it. Link URLs are
// built when their entries are written, not per link.
func TestLinkTextDocumentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race runtime")
	}
	e, doc, classes := documentEngine(t)
	opts := LinkOptions{SourceClasses: classes}
	var links int
	link := func() {
		res, err := e.LinkText(doc, opts)
		if err != nil {
			t.Fatal(err)
		}
		links = len(res.Links)
	}
	for i := 0; i < 8; i++ { // warm the pool
		link()
	}
	if len(doc) < 4000 || links < 30 {
		t.Fatalf("document of %d bytes made %d links", len(doc), links)
	}
	if allocs, bound := testing.AllocsPerRun(100, link), float64(3+2*links); allocs > bound {
		t.Errorf("LinkText of a %d-byte document with %d links allocates %.0f times, want at most %.0f", len(doc), links, allocs, bound)
	}
}

// TestPolicyAndSteerStagesSampled: every LinkText observes its tokenize and
// render stages, but only one run in sampleEvery reads the per-match clocks
// of the policy and steer stages and observes them.
func TestPolicyAndSteerStagesSampled(t *testing.T) {
	e := fig1Engine(t, Config{})
	const n = 10*sampleEvery + 3
	for i := 0; i < n; i++ {
		if _, err := e.LinkText("the planar graph is a graph", LinkOptions{SourceClasses: []string{"05C40"}}); err != nil {
			t.Fatal(err)
		}
	}
	for stage, h := range map[string]*telemetry.Histogram{StageTokenize: e.tel.stageTokenize, StageRender: e.tel.stageRender} {
		if got := h.Count(); got != n {
			t.Errorf("%s observed %d runs of %d", stage, got, n)
		}
	}
	for stage, h := range map[string]*telemetry.Histogram{StagePolicy: e.tel.stagePolicy, StageSteer: e.tel.stageSteer} {
		if got, want := int(h.Count()), n/sampleEvery; got < want-1 || got > want+1 {
			t.Errorf("%s observed %d runs of %d, want %d ± 1", stage, got, n, want)
		}
		if h.Sum() <= 0 {
			t.Errorf("%s sampled runs measured no time", stage)
		}
	}
}

// TestPooledRunPinsNothing: a run handed back to the pool references neither
// the request's text (tokens), nor a concept-map generation (matches), nor
// entries (candidates) — over the whole capacity of its buffers, not just
// their length — and a run that grew past maxPooledTokens is not pooled.
func TestPooledRunPinsNothing(t *testing.T) {
	e, doc, classes := documentEngine(t)
	multi := LinkOptions{SourceClasses: classes, TargetCorpora: []string{"default", "wiki"}}
	for _, tc := range []struct {
		name   string
		text   string
		opts   LinkOptions
		pooled bool
	}{
		{"document", doc, LinkOptions{SourceClasses: classes}, true},
		{"multi-target document", doc, multi, true},
		{"4 MiB text", strings.Repeat(doc+"\n\n", 4<<20/len(doc)+1), LinkOptions{SourceClasses: classes}, false},
	} {
		run := e.getRun()
		run.plan = e.plan(&tc.opts)
		e.scanText(run, tc.text)
		res, err := e.finish(run, e.captureView(run.entries, run.matches))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Links) == 0 || len(run.tokens) == 0 || len(run.matches) == 0 {
			t.Fatalf("%s: the run did no work", tc.name)
		}
		pooled := run.reset()
		if pooled != tc.pooled {
			t.Errorf("%s: %d tokens, %d matches: pooled = %v, want %v", tc.name, cap(run.tokens), cap(run.matches), pooled, tc.pooled)
		}
		if !pooled {
			continue
		}
		if run.e != nil || run.text != "" || run.plan.classes != nil || run.view.entries != nil || len(run.entries) != 0 || len(run.linked) != 0 {
			t.Errorf("%s: pooled run keeps request state: %+v", tc.name, run)
		}
		for _, tok := range run.tokens[:cap(run.tokens)] {
			if tok != (tokenizer.Token{}) {
				t.Fatalf("%s: pooled run keeps token %+v", tc.name, tok)
			}
		}
		for _, ms := range [][]conceptmap.Match{run.matches[:cap(run.matches)], run.multi[:cap(run.multi)]} {
			for _, m := range ms {
				if m.Label != "" || m.Candidates != nil {
					t.Fatalf("%s: pooled run keeps match %+v", tc.name, m)
				}
			}
		}
		for _, c := range run.cands[:cap(run.cands)] {
			if c != nil {
				t.Fatalf("%s: pooled run keeps candidate entry %d", tc.name, c.ID)
			}
		}
		for _, a := range run.anchors[:cap(run.anchors)] {
			if a != (render.Anchor{}) {
				t.Fatalf("%s: pooled run keeps anchor %+v", tc.name, a)
			}
		}
	}
}
