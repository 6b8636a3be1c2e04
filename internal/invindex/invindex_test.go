package invindex

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nnexus/internal/workload"
)

// fig6Index reproduces the paper's Fig 6 example: object 789 contains the
// phrase "conjugacy class formula"; objects 123 and 456 contain only pieces
// of it.
func fig6Index() *Index {
	ix := New()
	ix.AddText(123, "the conjugacy relation on elements")
	ix.AddText(456, "every equivalence class is a set")
	ix.AddText(789, "the conjugacy class formula counts elements")
	return ix
}

func TestFig6Example(t *testing.T) {
	ix := fig6Index()
	// Adding a definition for "conjugacy class formula" must invalidate
	// only object 789.
	got := ix.Lookup("conjugacy class formula")
	if len(got) != 1 || got[0] != 789 {
		t.Fatalf("Lookup = %v, want [789]", got)
	}
	// A word-based index would also invalidate 123 and 456.
	union := ix.LookupWordUnion("conjugacy class formula")
	if len(union) != 3 {
		t.Fatalf("word union = %v, want all three objects", union)
	}
}

func TestPrefixProperty(t *testing.T) {
	ix := fig6Index()
	// Every prefix of the stored phrase is itself a key.
	for _, prefix := range []string{"conjugacy", "conjugacy class", "conjugacy class formula"} {
		if !ix.Contains(prefix) {
			t.Errorf("prefix %q not indexed", prefix)
		}
	}
	// Lookup of the shorter tuple notices the longer phrase's object.
	got := ix.Lookup("conjugacy class")
	found := false
	for _, id := range got {
		if id == 789 {
			found = true
		}
	}
	if !found {
		t.Errorf("Lookup(conjugacy class) = %v missed 789", got)
	}
}

func TestLookupFallsBackToLongestPrefix(t *testing.T) {
	ix := fig6Index()
	// "conjugacy class theorem" is not stored; the longest stored prefix is
	// "conjugacy class" → only 789 (123 has "conjugacy" but not the pair).
	got := ix.Lookup("conjugacy class theorem")
	if len(got) != 1 || got[0] != 789 {
		t.Fatalf("Lookup = %v, want [789]", got)
	}
	// Completely novel first word: nothing to invalidate.
	if got := ix.Lookup("zygomorphic"); got != nil {
		t.Fatalf("Lookup(new word) = %v, want nil", got)
	}
}

func TestLookupNormalizes(t *testing.T) {
	ix := fig6Index()
	got := ix.Lookup("Conjugacy Classes")
	if len(got) != 1 || got[0] != 789 {
		t.Fatalf("Lookup = %v, want [789] (plural/case-folded)", got)
	}
}

func TestRemove(t *testing.T) {
	ix := fig6Index()
	ix.Remove(789)
	// The phrase keys died with 789; lookup falls back to the surviving
	// word key "conjugacy", a correct (if wider) superset.
	if got := ix.Lookup("conjugacy class formula"); len(got) != 1 || got[0] != 123 {
		t.Fatalf("Lookup after remove = %v, want fallback [123]", got)
	}
	got := ix.Lookup("conjugacy")
	if len(got) != 1 || got[0] != 123 {
		t.Fatalf("Lookup(conjugacy) = %v, want [123]", got)
	}
	ix.Remove(999) // no-op
}

func TestReAddReplaces(t *testing.T) {
	ix := New()
	ix.AddText(1, "alpha beta gamma")
	ix.AddText(1, "delta epsilon")
	if got := ix.Lookup("alpha"); got != nil {
		t.Fatalf("stale postings: %v", got)
	}
	if got := ix.Lookup("delta epsilon"); len(got) != 1 {
		t.Fatalf("missing new postings: %v", got)
	}
}

func TestMaxPhraseLen(t *testing.T) {
	ix := New(WithMaxPhraseLen(2))
	ix.AddText(1, "one two three four")
	if ix.Contains("one two three") {
		t.Error("phrase longer than max indexed")
	}
	if !ix.Contains("one two") {
		t.Error("2-gram missing")
	}
	// Lookup with an over-long label truncates to max length.
	if got := ix.Lookup("one two three"); len(got) != 1 {
		t.Errorf("Lookup = %v", got)
	}
}

func TestCompactDropsRarePhrasesKeepsWords(t *testing.T) {
	ix := New()
	// "common phrase" appears in 3 objects; "rare phrase" in 1.
	ix.AddText(1, "common phrase here and rare phrasing")
	ix.AddText(2, "common phrase again")
	ix.AddText(3, "the common phrase repeats")
	ix.AddText(4, "a rare phrase once")
	removed := ix.Compact(2)
	if removed == 0 {
		t.Fatal("nothing compacted")
	}
	if !ix.Contains("common phrase") {
		t.Error("frequent phrase was compacted")
	}
	if ix.Contains("rare phrase") {
		t.Error("rare phrase survived compaction")
	}
	// Words always survive.
	if !ix.Contains("rare") || !ix.Contains("phrase") {
		t.Error("word keys compacted")
	}
	// Fallback still finds object 4 via the word prefix.
	got := ix.Lookup("rare phrase")
	found := false
	for _, id := range got {
		if id == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("Lookup after compaction = %v missed object 4", got)
	}
}

// Tombstoned phrases must never be re-admitted with partial history.
func TestCompactionTombstones(t *testing.T) {
	ix := New()
	ix.AddText(1, "unique pair once")
	ix.Compact(5) // drops "unique pair", "pair once", "unique pair once"
	ix.AddText(2, "unique pair again")
	if ix.Contains("unique pair") {
		t.Fatal("tombstoned phrase re-admitted")
	}
	// Lookup falls back to the complete word posting and catches both.
	got := ix.Lookup("unique pair")
	if len(got) != 2 {
		t.Fatalf("Lookup = %v, want both objects via word fallback", got)
	}
}

// Core invariant: the invalidation set never misses an entry whose text
// contains the looked-up label, under random adds, re-adds, removes, and
// compactions — the caller's and the index's own. This is the property the
// old-versus-new comparison cannot vouch for: both could miss alike.
func TestNeverMissesInvariant(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		maxLen int
		opts   []Option
	}{
		{"len3", 3, []Option{WithMaxPhraseLen(3)}},
		{"len5-autocompact", 5, []Option{WithAutoCompact(7, DefaultCompactBelow)}},
	} {
		t.Run(cfg.name, func(t *testing.T) { neverMisses(t, cfg.maxLen, cfg.opts) })
	}
}

func neverMisses(t *testing.T, maxLen int, opts []Option) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"ring", "group", "field", "ideal", "prime", "module",
		"tensor", "basis", "kernel", "image"}
	ix := New(opts...)
	texts := make(map[int64][]string) // live object → token list
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0: // remove a random object
			for id := range texts {
				ix.Remove(id)
				delete(texts, id)
				break
			}
		case 1: // compact
			ix.Compact(1 + rng.Intn(3))
		default: // add a new object with random text, or re-add a recent one
			id := int64(step)
			if maxLen > 3 && rng.Intn(4) == 0 {
				id -= int64(rng.Intn(5))
			}
			n := 3 + rng.Intn(12)
			toks := make([]string, n)
			for i := range toks {
				toks[i] = vocab[rng.Intn(len(vocab))]
			}
			ix.AddTokens(id, toks)
			texts[id] = toks
		}
		// Check the invariant for a few random labels.
		for probe := 0; probe < 5; probe++ {
			n := 1 + rng.Intn(maxLen)
			label := make([]string, n)
			for i := range label {
				label[i] = vocab[rng.Intn(len(vocab))]
			}
			if maxLen > 3 && len(texts) > 0 && probe == 0 {
				// A random long label rarely occurs anywhere: take one
				// from a live text so the deep keys are asked about too.
				for _, toks := range texts {
					n = min(n, len(toks))
					i := rng.Intn(len(toks) - n + 1)
					label = toks[i : i+n]
					break
				}
			}
			query := strings.Join(label, " ")
			got := ix.Lookup(query)
			gotSet := make(map[int64]bool, len(got))
			for _, id := range got {
				gotSet[id] = true
			}
			for id, toks := range texts {
				if containsPhrase(toks, label) && !gotSet[id] {
					t.Fatalf("step %d: object %d contains %q but was not invalidated (got %v)",
						step, id, query, got)
				}
			}
		}
	}
}

func containsPhrase(toks, phrase []string) bool {
outer:
	for i := 0; i+len(phrase) <= len(toks); i++ {
		for j := range phrase {
			if toks[i+j] != phrase[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// The adaptive index must remain far smaller than the full n-gram blowup:
// with Zipf-ish text and compaction, phrase keys stay within a small factor
// of word keys (the paper claims ≈2× a word index).
func TestAdaptiveSizeClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Zipf-ish vocabulary: low ranks appear much more often.
	vocab := make([]string, 300)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	zipfWord := func() string {
		// crude Zipf: rank ∝ 1/u
		u := rng.Float64()
		rank := int(1/(u+0.004)) % len(vocab)
		return vocab[rank]
	}
	ix := New()
	for id := int64(0); id < 300; id++ {
		toks := make([]string, 60)
		for i := range toks {
			toks[i] = zipfWord()
		}
		ix.AddTokens(id, toks)
		if id%50 == 49 {
			ix.Compact(DefaultCompactBelow + 1)
		}
	}
	ix.Compact(DefaultCompactBelow + 1)
	s := ix.Stats()
	if s.PhraseKeys > 6*s.WordKeys {
		t.Errorf("phrase keys %d >> word keys %d: index not adaptive", s.PhraseKeys, s.WordKeys)
	}
	if s.PhraseKeys == 0 {
		t.Error("no phrases survived: compaction too aggressive")
	}
}

// Every method takes the index's lock: writers and readers may overlap
// (run under -race), AddText's shared tokenizer buffer included.
func TestConcurrentUse(t *testing.T) {
	ix := New(WithAutoCompact(16, DefaultCompactBelow))
	bodies := generatedBodies(t, 60)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, body := range bodies {
				ix.AddText(int64(i%20+20*w), body)
				if i%7 == 0 {
					ix.Remove(int64(i % 20))
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix.Lookup("abelian group")
				ix.LookupWordUnion("compact space")
				ix.Contains("the")
				_ = ix.Keys() + ix.Stats().Bytes
			}
		}()
	}
	wg.Wait()
	if ix.Keys() == 0 {
		t.Fatal("nothing indexed")
	}
}

func TestStats(t *testing.T) {
	ix := fig6Index()
	s := ix.Stats()
	if s.Objects != 3 || s.WordKeys == 0 || s.PhraseKeys == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEmptyLookups(t *testing.T) {
	ix := New()
	if got := ix.Lookup(""); got != nil {
		t.Errorf("Lookup(empty) = %v", got)
	}
	if got := ix.LookupWordUnion("anything at all"); got != nil {
		t.Errorf("LookupWordUnion on empty index = %v", got)
	}
}

// engineOptions are the options core.NewEngine builds its indexes with.
var engineOptions = []Option{WithAutoCompact(DefaultCompactEvery, DefaultCompactBelow)}

func generatedBodies(tb testing.TB, entries int) []string {
	tb.Helper()
	c, err := workload.Generate(workload.DefaultParams(entries))
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([]string, len(c.Entries))
	for i, ge := range c.Entries {
		bodies[i] = ge.Entry.Body
	}
	return bodies
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIndexBudget gates what the index costs, at the engine's options on the
// benchmark's kind of text: the heap it holds per posting (the string-keyed
// maps it replaced held 324 bytes here, the trie over a runtime map of edges
// 84.6, a node per key 46.9), the nodes it keeps per key it ever counted (one
// node per key read 1.0, a run of keys per node 0.350), that Stats.Bytes
// tells the truth about it, what building it allocates (181k with the map of
// edges and a list per posting) and that indexing a text into a warm index
// allocates next to nothing (it was some 300 allocations, five keys per
// token).
func TestIndexBudget(t *testing.T) {
	bodies := generatedBodies(t, 1000)
	build := func() *Index {
		ix := New(engineOptions...)
		for i, body := range bodies {
			ix.AddText(int64(i+1), body)
		}
		return ix
	}
	before := heapAlloc()
	ix := build()
	held := float64(heapAlloc() - before)
	st := ix.Stats()
	perPosting := held / float64(st.Postings)
	t.Logf("%d postings, %.0f bytes held (%.1f per posting), Stats.Bytes %d", st.Postings, held, perPosting, st.Bytes)
	if perPosting > 26.5 {
		t.Errorf("%.1f bytes of heap per posting, budget 26.5", perPosting)
	}
	if ratio := float64(st.Bytes) / held; ratio < 1/1.25 || ratio > 1.25 {
		t.Errorf("Stats.Bytes = %d, heap held = %.0f: off by more than 1.25x", st.Bytes, held)
	}
	nodes, keys := 0, 0 // every key ever counted, tombstoned and emptied ones too
	for _, page := range ix.pages {
		for j := range page {
			nodes, keys = nodes+1, keys+page[j].keys()
		}
	}
	nodes, keys = nodes-1, keys-1 // less the root
	perKey := float64(nodes) / float64(keys)
	t.Logf("%d nodes for %d keys (%.3f a key)", nodes, keys, perKey)
	if perKey > 0.385 {
		t.Errorf("%.3f nodes per key, budget 0.385", perKey)
	}
	if allocs := testing.AllocsPerRun(1, func() { build() }); allocs > 37400 {
		t.Errorf("building the index: %.0f allocations, budget 37,400", allocs)
	}
	allocs := testing.AllocsPerRun(20, func() { ix.AddText(500, bodies[499]) })
	if allocs > 8 {
		t.Errorf("re-adding an indexed body: %.0f allocations, budget 8", allocs)
	}
	runtime.KeepAlive(ix)
}

// TestEdgeTableMatchesMap puts 2^18 random non-zero keys into an edgeTable,
// half of them shaped like real edges, and holds it to a map after every
// growth from the first allocation up: every key put gets its child back and
// no key absent gets one. A key put again keeps one slot and takes the new
// child.
func TestEdgeTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	key := func() uint64 {
		if rng.Intn(2) == 0 {
			return edgeKey(1+rng.Int31n(1<<16), rng.Int31n(1<<12))
		}
		return max(1, rng.Uint64())
	}
	var tab edgeTable
	want := make(map[uint64]int32)
	check := func() {
		t.Helper()
		if tab.n != len(want) {
			t.Fatalf("%d keys held, want %d", tab.n, len(want))
		}
		for k, child := range want {
			if got := tab.get(k); got != child {
				t.Fatalf("get(%#x) = %d, want %d (%d keys, %d slots)", k, got, child, len(want), len(tab.keys))
			}
		}
		for i := 0; i < 1000; i++ {
			if k := key(); want[k] == 0 && tab.get(k) != 0 {
				t.Fatalf("get(%#x) of an absent key = %d (%d keys, %d slots)", k, tab.get(k), len(want), len(tab.keys))
			}
		}
	}
	check() // the empty table has no slots
	for len(want) < 1<<18 {
		k, child := key(), 1+rng.Int31n(1<<30)
		size := len(tab.keys)
		tab.put(k, child)
		want[k] = child
		if len(tab.keys) != size {
			check()
		}
	}
	check()
	reput := 0
	for k := range want {
		if reput++; reput > 1000 {
			break
		}
		tab.put(k, 7)
		want[k] = 7
	}
	check()
	if len(tab.keys) != 1<<19 {
		t.Errorf("%d slots for 2^18 keys, want 2^19", len(tab.keys))
	}
}

// BenchmarkAddText builds an index over the bodies of the repository
// benchmark's corpus (3,000 entries, seed 20090601) — a key space that grows
// with the corpus — and reports the two figures an inverted index is judged
// by: time per entry indexed and heap held per posting (EXPERIMENTS.md
// §2.5). One op is one whole build. The three shapes are the ablation's: a
// plain word index, every phrase kept, and the engine's adaptive index; each
// is built by Index and by the reference it replaced.
func BenchmarkAddText(b *testing.B) {
	p := workload.DefaultParams(3000)
	p.Seed = 20090601
	c, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	type index interface {
		AddText(int64, string)
		Stats() Stats
	}
	for _, shape := range []struct {
		name                 string
		maxLen, every, below int
	}{
		{"word", 1, 0, 0},
		{"uncompacted", DefaultMaxPhraseLen, 0, 0},
		{"adaptive", DefaultMaxPhraseLen, DefaultCompactEvery, DefaultCompactBelow},
	} {
		for _, impl := range []struct {
			name string
			new  func() index
		}{
			{"trie", func() index {
				return New(WithMaxPhraseLen(shape.maxLen), WithAutoCompact(shape.every, shape.below))
			}},
			{"reference", func() index { return newRefIndex(shape.maxLen, shape.every, shape.below) }},
		} {
			b.Run(shape.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				var ix index
				var held uint64
				for i := 0; i < b.N; i++ {
					ix = nil
					b.StopTimer()
					before := heapAlloc()
					b.StartTimer()
					ix = impl.new()
					for _, ge := range c.Entries {
						ix.AddText(int64(ge.Index), ge.Entry.Body)
					}
					b.StopTimer()
					held = heapAlloc() - before
					b.StartTimer()
				}
				st := ix.Stats()
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(c.Entries)), "µs/entry")
				b.ReportMetric(float64(held)/float64(st.Postings), "bytes/posting")
				b.ReportMetric(float64(st.Postings), "postings")
			})
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	ix := New()
	rng := rand.New(rand.NewSource(1))
	vocab := []string{"ring", "group", "field", "ideal", "prime", "module"}
	for id := int64(0); id < 1000; id++ {
		toks := make([]string, 50)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		ix.AddTokens(id, toks)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup("ring group field")
	}
}
