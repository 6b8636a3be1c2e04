package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
	"nnexus/internal/shard"
	"nnexus/internal/storage"
	"nnexus/internal/tokenizer"
)

// routerFixtureEntries is the Fig 1 corpus extended with overlapping
// multi-word phrases ("orthogonal function" / "function space") so the
// greedy merge has real shadowing work to do across shard boundaries, plus
// a second namespace ("wiki") of homonyms and phrases overlapping the first,
// so cross-corpus link policies merge spans across both namespaces and
// ring slices at once. The wiki entries come last: the default namespace's
// IDs are what they were without them.
func routerFixtureEntries() []*corpus.Entry {
	return []*corpus.Entry{
		{Title: "connected graph", Classes: []string{"05C40"}},
		{Title: "planar graph", Classes: []string{"05C10"}},
		{Title: "connected components", Concepts: []string{"connected component"}, Classes: []string{"05C40"}},
		{Title: "even number", Concepts: []string{"even"}, Classes: []string{"11A51"}},
		{Title: "graph", Classes: []string{"05C99"}},
		{Title: "graph", Classes: []string{"03E20"}},
		{Title: "plane", Classes: []string{"51A05"}},
		{Title: "orthogonal function", Classes: []string{"03E20"}},
		{Title: "function space", Classes: []string{"03E20"}},
		{Title: "function", Classes: []string{"03E20"}},
		{Title: "metric space", Classes: []string{"05C99"}},
		{Title: "space", Classes: []string{"51A05"}},
		{Corpus: "wiki", Title: "graph", Classes: []string{"05C10"}},
		{Corpus: "wiki", Title: "plane graph", Classes: []string{"05C10"}},
		{Corpus: "wiki", Title: "function space", Classes: []string{"03E20"}},
		{Corpus: "wiki", Title: "even", Classes: []string{"11A51"}},
	}
}

// buildShardedFixture assembles the router fixture corpus twice: once on a
// single unsharded engine (the reference) and once across n shard-mode
// engines behind a ShardRouter.
func buildShardedFixture(t testing.TB, n int) (*Engine, *ShardRouter, []*Engine) {
	entries := routerFixtureEntries()
	for _, e := range entries {
		e.Domain = "planetmath.org"
	}
	return buildFleet(t, n, Config{Scheme: classification.SampleMSC(10)}, corpus.Domain{
		Name:        "planetmath.org",
		URLTemplate: "http://planetmath.org/?op=getobj&id={id}",
		Scheme:      "msc",
		Priority:    1,
	}, entries)
}

// buildFleet adds the entries, in order, to one unsharded engine and to n
// shard-mode engines behind a ShardRouter, all configured by cfg. Entry IDs
// are asserted identical on both sides so results can be compared
// bit-for-bit.
func buildFleet(t testing.TB, n int, cfg Config, dom corpus.Domain, entries []*corpus.Entry) (*Engine, *ShardRouter, []*Engine) {
	single, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := shard.NewRing(n, shard.DefaultVnodes)
	engines := make([]*Engine, n)
	for i := range engines {
		scfg := cfg
		scfg.ShardRing, scfg.ShardID = ring, i
		if engines[i], err = NewEngine(scfg); err != nil {
			t.Fatal(err)
		}
	}
	router, err := NewShardRouter(RouterConfig{
		Ring:               ring,
		Backend:            LocalShardBackend{Engines: engines},
		LinkAllOccurrences: cfg.LinkAllOccurrences,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	if err := single.AddDomain(dom); err != nil {
		t.Fatal(err)
	}
	if err := router.AddDomain(dom); err != nil {
		t.Fatal(err)
	}
	for _, src := range entries {
		a, b := *src, *src
		wantID, err := single.AddEntry(&a)
		if err != nil {
			t.Fatalf("single AddEntry(%s): %v", src.Title, err)
		}
		gotID, err := router.AddEntry(&b)
		if err != nil {
			t.Fatalf("router AddEntry(%s): %v", src.Title, err)
		}
		if gotID != wantID {
			t.Fatalf("ID sequences diverged on %q: router %d, single %d", src.Title, gotID, wantID)
		}
	}
	return single, router, engines
}

var equivalenceTexts = []string{
	"A plane graph is a planar graph which is drawn in the plane so that its edges have no crossings.",
	"the orthogonal function space is a function space and a metric space",
	"even the graph of a function has connected components",
	"graph graph graph",
	"a space, a plane, an even number, and nothing else",
	"no concepts at all here",
	"",
	"Connected Components of planar graphs are connected graphs.",
}

var equivalenceOpts = []LinkOptions{
	{},
	{SourceClasses: []string{"05C40"}},
	{SourceClasses: []string{"03E20"}, Mode: ModeSteered},
	{SourceClasses: []string{"03E20"}, Mode: ModeLexical},
	{ExcludeObject: 5},
	{SourceCorpus: "wiki", SourceClasses: []string{"05C40"}},
	{SourceCorpus: "wiki", TargetCorpora: []string{"wiki", "default"}, ExcludeObject: 13},
	{SourceClasses: []string{"03E20"}, TargetCorpora: []string{"default", "wiki"}},
}

// TestShardedLinkTextEquivalence is the core correctness contract: the
// scatter-gather router over n shards must produce results bit-identical to
// the unsharded engine for every text and option set.
func TestShardedLinkTextEquivalence(t *testing.T) {
	for n := 1; n <= 4; n++ {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			single, router, _ := buildShardedFixture(t, n)
			for _, text := range equivalenceTexts {
				for _, opts := range equivalenceOpts {
					want, err := single.LinkText(text, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := router.LinkText(text, opts)
					if err != nil {
						t.Fatalf("router.LinkText(%q): %v", text, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("diverged on %q (opts %+v)\nsingle: %+v\nrouter: %+v", text, opts, want, got)
					}
				}
			}
		})
	}
}

// TestShardedWritePlacement checks consistent-hash write routing: an entry
// lands exactly on the shards owning at least one of its labels.
func TestShardedWritePlacement(t *testing.T) {
	_, router, engines := buildShardedFixture(t, 4)
	ring := router.ring
	entry := &corpus.Entry{
		Title:   "normal subgroup",
		Domain:  "planetmath.org",
		Classes: []string{"05C40"},
	}
	id, err := router.AddEntry(entry)
	if err != nil {
		t.Fatal(err)
	}
	homes := map[int]bool{}
	for _, label := range entry.Labels() {
		homes[ring.OwnerLabel(label)] = true
	}
	for i, e := range engines {
		_, ok := e.Entry(id)
		if ok != homes[i] {
			t.Errorf("shard %d has entry=%v, want %v", i, ok, homes[i])
		}
	}
}

// TestShardReplayOfLabelMovedByWordRule shows where a label lands when its
// shard's store was written while labels were split at whitespace only. The
// ring placed a label like "ring, commutative" by its first whitespace
// field, "ring,", and now places it by its first word, "ring". Replaying
// that store keeps the entry on the shard that holds it but does not index
// the label there, so no shard serves it; under the old rule it could not
// link its own text either, since no token is "ring,". Importing the entry
// again through the router indexes the label on its owner, where its text
// links it.
func TestShardReplayOfLabelMovedByWordRule(t *testing.T) {
	ring := shard.NewRing(4, shard.DefaultVnodes)
	var label string
	var oldShard, newShard int
	for _, w := range []string{"ring", "group", "field", "module", "lattice", "algebra"} {
		if o, n := ring.Owner(w+","), ring.Owner(w); o != n {
			label, oldShard, newShard = w+", commutative", o, n
			break
		}
	}
	if label == "" {
		t.Fatal("no candidate label moves shard; extend the word list")
	}
	if got := ring.OwnerLabel(label); got != newShard {
		t.Fatalf("OwnerLabel(%q) = %d, want %d", label, got, newShard)
	}
	dom := corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1}
	entry := corpus.Entry{ID: 1, Domain: dom.Name, Title: label, Classes: []string{"05C10"}}
	cfg := Config{Scheme: classification.SampleMSC(10), ShardRing: ring}

	// The old router sent the entry to the owner of its first field.
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Store, scfg.ShardID = store, oldShard
	written, err := NewEngine(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := written.AddDomain(dom); err != nil {
		t.Fatal(err)
	}
	put := entry
	if err := written.PutEntry(&put); err != nil {
		t.Fatal(err)
	}
	written.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if store, err = storage.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	engines := make([]*Engine, ring.NumShards())
	for i := range engines {
		scfg := cfg
		scfg.ShardID = i
		if i == oldShard {
			scfg.Store = store
		}
		if engines[i], err = NewEngine(scfg); err != nil {
			t.Fatal(err)
		}
	}
	text := "every " + label + " or not"
	if _, ok := engines[oldShard].Entry(entry.ID); !ok {
		t.Fatalf("shard %d lost the entry on replay", oldShard)
	}
	if res, err := engines[oldShard].LinkText(text, LinkOptions{}); err != nil || len(res.Links) != 0 {
		t.Fatalf("shard %d links a label it does not own: %+v, %v", oldShard, res, err)
	}

	router, err := NewShardRouter(RouterConfig{Ring: ring, Backend: LocalShardBackend{Engines: engines}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if res, err := router.LinkText(text, LinkOptions{}); err != nil || len(res.Links) != 0 {
		t.Fatalf("before re-import: %+v, %v; want no link", res, err)
	}
	if err := router.AddDomain(dom); err != nil {
		t.Fatal(err)
	}
	again := entry
	again.ID = 0
	id, err := router.AddEntry(&again)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := engines[newShard].Entry(id); !ok {
		t.Fatalf("re-imported entry %d is not on shard %d", id, newShard)
	}
	res, err := router.LinkText(text, LinkOptions{})
	if err != nil || len(res.Links) != 1 || res.Links[0].Target != id {
		t.Fatalf("after re-import: %+v, %v; want one link to %d", res, err, id)
	}
}

// flakyBackend fails ScanShard for downed shards, leaving writes and the
// other shards untouched — the unit-level stand-in for a dead primary.
type flakyBackend struct {
	LocalShardBackend
	down map[int]bool
}

func (b flakyBackend) ScanShard(id int, dst []ResolvedMatch, tokens []tokenizer.Token, opts LinkOptions) ([]ResolvedMatch, error) {
	if b.down[id] {
		return dst, fmt.Errorf("shard %d: connection refused", id)
	}
	return b.LocalShardBackend.ScanShard(id, dst, tokens, opts)
}

// distinctOwners finds two single-word fixture labels owned by different
// shards on the given ring.
func distinctOwners(t *testing.T, ring *shard.Ring) (healthy, downed string) {
	t.Helper()
	words := []string{"graph", "plane", "even", "space", "function"}
	for _, a := range words[1:] {
		if ring.OwnerLabel(a) != ring.OwnerLabel(words[0]) {
			return words[0], a
		}
	}
	t.Fatal("all fixture labels hash to one shard; extend the word list")
	return "", ""
}

// TestShardedPartialResults drives the degradation contract: a downed shard
// turns reads touching it into typed partial results, reads that avoid it
// stay complete, and links owned by healthy shards always survive.
func TestShardedPartialResults(t *testing.T) {
	_, router, engines := buildShardedFixture(t, 4)
	ring := router.ring
	healthyWord, downWord := distinctOwners(t, ring)
	downShard := ring.OwnerLabel(downWord)

	be := flakyBackend{
		LocalShardBackend: LocalShardBackend{Engines: engines},
		down:              map[int]bool{downShard: true},
	}
	flaky, err := NewShardRouter(RouterConfig{Ring: ring, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()

	// A read that touches the downed shard: typed partial result.
	text := fmt.Sprintf("the %s and the %s", healthyWord, downWord)
	res, err := flaky.LinkText(text, LinkOptions{})
	var unavail *shard.UnavailableError
	if !errors.As(err, &unavail) {
		t.Fatalf("want *shard.UnavailableError, got %v", err)
	}
	if len(unavail.Shards) != 1 || unavail.Shards[0] != downShard {
		t.Errorf("UnavailableError.Shards = %v, want [%d]", unavail.Shards, downShard)
	}
	if res == nil {
		t.Fatal("partial failure returned a nil result")
	}
	found := map[string]bool{}
	for _, l := range res.Links {
		found[l.Label] = true
	}
	if !found[healthyWord] {
		t.Errorf("partial result lost the healthy shard's link %q: %+v", healthyWord, res.Links)
	}
	if found[downWord] {
		t.Errorf("partial result contains a link from the downed shard: %+v", res.Links)
	}

	// A read that avoids the downed shard must be complete and error-free.
	only := fmt.Sprintf("just a %s here", healthyWord)
	clean := true
	for _, tok := range tokenizer.TokenizeAppend(nil, only) {
		if ring.Owner(tok.Norm) == downShard {
			clean = false
		}
	}
	if clean {
		if _, err := flaky.LinkText(only, LinkOptions{}); err != nil {
			t.Errorf("read avoiding the downed shard failed: %v", err)
		}
	}
}

// TestShardRouterTelemetry is the exposition contract for the sharding
// metric families: the fanout histogram, the router-side pipeline stages
// (including the new merge stage), the partial-result and per-shard failure
// counters on the router registry, and the shard label on the engine-side
// counter families.
func TestShardRouterTelemetry(t *testing.T) {
	_, router, engines := buildShardedFixture(t, 2)
	for _, text := range equivalenceTexts {
		if _, err := router.LinkText(text, LinkOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := router.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE nnexus_shard_fanout histogram",
		fmt.Sprintf("nnexus_shard_fanout_count %d", len(equivalenceTexts)),
		"# TYPE nnexus_pipeline_stage_duration_seconds histogram",
		fmt.Sprintf(`nnexus_pipeline_stage_duration_seconds_count{stage="merge"} %d`, len(equivalenceTexts)),
		fmt.Sprintf(`nnexus_pipeline_stage_duration_seconds_count{stage="tokenize"} %d`, len(equivalenceTexts)),
		"# TYPE nnexus_router_link_texts_total counter",
		"# TYPE nnexus_links_created_total counter",
		"# TYPE nnexus_shard_partial_results_total counter",
		"nnexus_shard_partial_results_total 0",
		"# TYPE nnexus_shard_scan_failures_total counter",
		`nnexus_shard_scan_failures_total{shard="0"} 0`,
		`nnexus_shard_scan_failures_total{shard="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("router exposition is missing %q", want)
		}
	}

	// Engine-side families gain the shard label in shard mode.
	for i, e := range engines {
		sb.Reset()
		if err := e.Telemetry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		eout := sb.String()
		for _, want := range []string{
			fmt.Sprintf(`nnexus_engine_operations_total{op="scan_shard",shard="%d"}`, i),
			fmt.Sprintf(`nnexus_engine_operations_total{op="put_entry",shard="%d"}`, i),
			fmt.Sprintf(`nnexus_links_created_total{shard="%d"}`, i),
			fmt.Sprintf(`nnexus_scan_fallback_total{shard="%d"}`, i),
		} {
			if !strings.Contains(eout, want) {
				t.Errorf("shard %d exposition is missing %q", i, want)
			}
		}
	}
}

// TestShardedLinkTextAllocs asserts the pooled-scratch contract: the
// scatter-gather machinery itself (call slots, token slices, match buffers,
// merge bookkeeping) is pooled, so widening the fan-out from one shard to
// four must add at most each shard's plan of the source classes (their
// scheme indexes) — nothing per request. The comparison is
// router-vs-router: router-vs-engine carries an inherent protocol cost
// (each shard resolves duplicate and shadowed occurrences through
// chooseTarget — policy, steering — that the unsharded engine drops before
// resolution), which is bounded separately and generously.
func TestShardedLinkTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race runtime")
	}
	single, narrow, _ := buildShardedFixture(t, 1)
	_, wide, _ := buildShardedFixture(t, 4)
	text := equivalenceTexts[0]
	opts := LinkOptions{SourceClasses: []string{"05C40"}}
	measure := func(run func() (*Result, error)) float64 {
		for i := 0; i < 8; i++ { // warm the pools
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(func() (*Result, error) { return single.LinkText(text, opts) })
	one := measure(func() (*Result, error) { return narrow.LinkText(text, opts) })
	four := measure(func() (*Result, error) { return wide.LinkText(text, opts) })
	t.Logf("allocs/op: unsharded=%.1f shards=1 %.1f shards=4 %.1f", base, one, four)
	// 3 extra shards × (1 class-index slice + jitter): the fan-out itself.
	if four > one+6 {
		t.Errorf("widening fan-out 1→4 shards added %.1f allocs/op, want ≤ 6 (scatter scratch must be pooled)", four-one)
	}
	// The protocol cost (dup/shadow resolution on shards) stays bounded.
	if four > base+32 {
		t.Errorf("sharded LinkText allocates %.1f/op vs unsharded %.1f/op; protocol overhead grew past the documented bound", four, base)
	}
}

// BenchmarkShardedLinkText measures the scatter-gather read path against
// the unsharded engine and carries the allocs/op assertion into the bench
// suite.
func BenchmarkShardedLinkText(b *testing.B) {
	text := equivalenceTexts[0]
	opts := LinkOptions{SourceClasses: []string{"05C40"}}
	b.Run("unsharded", func(b *testing.B) {
		single, _, _ := buildShardedFixture(b, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := single.LinkText(text, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			_, router, _ := buildShardedFixture(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := router.LinkText(text, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzShardedLinkEquivalence is the differential fuzz target from the PR 9
// acceptance criteria: for arbitrary text, the sharded scatter-gather
// LinkText must be bit-identical to the single-map engine over the same
// corpus. Runs in-process (the wire projection of links is lossy; the
// network path is covered by the chaos and client tests).
func FuzzShardedLinkEquivalence(f *testing.F) {
	single, router, _ := buildShardedFixture(f, 3)
	for _, text := range equivalenceTexts {
		f.Add(text)
	}
	f.Add("plane graph plane graph plane graph")
	f.Add("orthogonal function space space space function")
	f.Add("evén number möbius graph ß space")
	f.Add("a plane graph in the function space is even")
	f.Fuzz(func(t *testing.T, text string) {
		for _, opts := range []LinkOptions{
			{SourceClasses: []string{"05C40"}},
			{SourceClasses: []string{"05C40"}, SourceCorpus: "wiki"},
			{SourceClasses: []string{"05C40"}, TargetCorpora: []string{"wiki", "default"}},
		} {
			want, err := single.LinkText(text, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := router.LinkText(text, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("sharded LinkText diverged on %q (opts %+v)\nsingle: %+v\nrouter: %+v", text, opts, want, got)
			}
		}
	})
}
