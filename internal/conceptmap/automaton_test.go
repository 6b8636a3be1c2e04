package conceptmap

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/clock"
	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// scanBoth runs the chained-hash and automaton scans over the same tokens
// and fails the test unless they produce identical match streams — labels,
// token ranges, byte offsets, and candidate sets all included.
func scanBoth(t *testing.T, m *Map, text string) []Match {
	t.Helper()
	m.CompileNow()
	tokens := tokenizer.Tokenize(text)
	snap := m.snap.Load()
	chained := snap.scanChained(nil, tokens, true)
	got, usedAut := m.ScanAppendAuto(nil, tokens)
	if !usedAut {
		t.Fatalf("automaton did not serve the scan after CompileNow")
	}
	assertSameMatches(t, chained, got, text)
	return got
}

func assertSameMatches(t *testing.T, want, got []Match, text string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("match count: chained=%d automaton=%d\nchained: %+v\nautomaton: %+v\ntext: %q",
			len(want), len(got), want, got, text)
	}
	for i := range want {
		if want[i].Label != got[i].Label ||
			want[i].TokenStart != got[i].TokenStart || want[i].TokenEnd != got[i].TokenEnd ||
			want[i].ByteStart != got[i].ByteStart || want[i].ByteEnd != got[i].ByteEnd ||
			!reflect.DeepEqual(want[i].Candidates, got[i].Candidates) {
			t.Fatalf("match %d differs:\nchained:   %+v\nautomaton: %+v\ntext: %q", i, want[i], got[i], text)
		}
	}
}

func TestAutomatonBasicScan(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"planar graph", "graph"})
	m.AddObject(2, []string{"graph", "orthogonal function"})
	ms := scanBoth(t, m, "Every planar graph defines an orthogonal function on a graph.")
	if len(ms) != 3 {
		t.Fatalf("matches = %+v", ms)
	}
	if ms[0].Label != "planar graph" || ms[1].Label != "orthogonal function" || ms[2].Label != "graph" {
		t.Fatalf("labels = %v %v %v", ms[0].Label, ms[1].Label, ms[2].Label)
	}
}

// TestAutomatonInnerWordMatch is the counterexample that breaks naive
// "skip to the fail state's start" scanning: a long pattern dies one word
// short of completion, and the inner one-word pattern it shadowed must still
// be emitted.
func TestAutomatonInnerWordMatch(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"a b c x", "b"})
	ms := scanBoth(t, m, "a b c d")
	if len(ms) != 1 || ms[0].Label != "b" || ms[0].TokenStart != 1 {
		t.Fatalf("matches = %+v", ms)
	}
}

// TestAutomatonLeftmostLongest pins the §2.2 tie-breaks: the leftmost match
// start wins, and at equal starts the longest label wins.
func TestAutomatonLeftmostLongest(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"a b", "b c"})
	ms := scanBoth(t, m, "a b c")
	if len(ms) != 1 || ms[0].Label != "a b" {
		t.Fatalf("matches = %+v", ms)
	}

	m2 := New()
	m2.AddObject(1, []string{"b", "a b c"})
	ms = scanBoth(t, m2, "a b c")
	if len(ms) != 1 || ms[0].Label != "a b c" {
		t.Fatalf("matches = %+v", ms)
	}
}

// TestAutomatonResumePastMatch checks the non-overlap rule and the bounded
// restart re-scan: after emitting a match, suppressed occurrences that
// started inside it must not reappear, while occurrences past its end must.
func TestAutomatonResumePastMatch(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"a b c", "b c d", "c d", "d e"})
	// "a b c" wins at 0; scan resumes at token 3 ("d"), where "d e" matches.
	ms := scanBoth(t, m, "a b c d e")
	if len(ms) != 2 || ms[0].Label != "a b c" || ms[1].Label != "d e" {
		t.Fatalf("matches = %+v", ms)
	}
}

// TestAutomatonEmptyNormalizedWord is a crash regression: a label word that
// normalized to nothing (a bare possessive "'s") used to survive
// NormalizeLabel as an empty word ("euler  theorem"), and compiling such a
// label panicked on the background compiler goroutine, killing the process.
// Labels are now split into words by the tokenizer's rule, so "'s" is the
// word "s", and the label must compile and match its own text on both scan
// paths.
func TestAutomatonEmptyNormalizedWord(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"euler 's theorem", "'s", "graph"})
	if got := m.Lookup("Euler 's Theorem"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Lookup = %v", got)
	}
	ms := scanBoth(t, m, "By Euler 's theorem the graph closes.")
	if len(ms) != 2 || ms[0].Label != "euler s theorem" || ms[1].Label != "graph" {
		t.Fatalf("matches = %+v", ms)
	}
}

// TestLabelsLinkTheirOwnText holds labels with punctuation inside to their
// own text: labels used to be split at whitespace only, so that each of
// these, whose words the tokenizer splits at the punctuation, never matched.
func TestLabelsLinkTheirOwnText(t *testing.T) {
	for _, label := range []string{"Hahn–Banach theorem", "group (algebra)", "ring, commutative", "L^p space"} {
		m := New()
		m.AddObject(1, []string{label})
		ms := scanBoth(t, m, "see "+label+" here")
		if len(ms) != 1 || ms[0].TokenStart != 1 || ms[0].Label != morph.NormalizeLabel(label) {
			t.Errorf("%q: matches = %+v", label, ms)
		}
	}
	// An en dash joins a word as a hyphen does, so either spelling of a
	// label links the other's text.
	for label, text := range map[string]string{"Hahn–Banach theorem": "Hahn-Banach theorem", "Cauchy-Schwarz inequality": "Cauchy–Schwarz inequality"} {
		m := New()
		m.AddObject(1, []string{label})
		if ms := scanBoth(t, m, "by the "+text); len(ms) != 1 || ms[0].TokenStart != 2 {
			t.Errorf("%q in %q: matches = %+v", label, text, ms)
		}
	}
}

// TestTokenizedBeforeLabel holds the scan to the generation it pins: a token
// that resolved to no word is in no label, since a label's words enter the
// vocabulary before the label is published. So a text tokenized before a
// label with a new word was added does not link against it on either scan
// path, and the same text tokenized after a generation holding the label was
// pinned does.
func TestTokenizedBeforeLabel(t *testing.T) {
	words := fmt.Sprintf("zorblax%d quuxite", time.Now().UnixNano())
	text := "a " + words + " b"
	m := New()
	m.AddObject(2, []string{"b"})
	before := m.Pin()
	tokens := tokenizer.Tokenize(text)
	if tokens[1].Word != 0 {
		t.Fatalf("token %q resolved before any label or body had it", words)
	}
	m.AddObject(1, []string{words})
	m.CompileNow()
	for _, scan := range []func() []Match{
		func() []Match { ms, _ := m.ScanAppendAuto(nil, tokens); return ms },
		func() []Match { return m.snap.Load().scanChained(nil, tokens, true) },
		func() []Match { ms, _ := before.ScanAppendAuto(nil, tokens); return ms },
	} {
		if ms := scan(); len(ms) != 1 || ms[0].Label != "b" {
			t.Fatalf("text tokenized before its label: matches = %+v", ms)
		}
	}
	for _, w := range strings.Fields(words) {
		if morph.WordID(w) == 0 {
			t.Fatalf("the label's word %q is not in the vocabulary", w)
		}
	}
	after := m.Pin()
	tokens = tokenizer.Tokenize(text)
	ms, usedAut := after.ScanAppendAuto(nil, tokens)
	if !usedAut || len(ms) != 2 || ms[0].Label != words || ms[0].TokenStart != 1 {
		t.Fatalf("automaton %v, matches = %+v", usedAut, ms)
	}
	assertSameMatches(t, after.snap.scanChained(nil, tokens, true), ms, text)
}

// TestUnwrittenFormOfLabelWord links a surface form no text has spelled
// against the label word it normalizes to: the read path normalizes the form
// and finds the word's ID, without adding the form to the vocabulary.
func TestUnwrittenFormOfLabelWord(t *testing.T) {
	word := fmt.Sprintf("grafon%d", time.Now().UnixNano())
	form := strings.ToUpper(word[:1]) + word[1:] + "s"
	m := New()
	m.AddObject(1, []string{word})
	words := morph.Words()
	text := "two " + form + " meet"
	tokens := tokenizer.Tokenize(text)
	if tokens[1].Word == 0 || tokens[1].Word != morph.WordID(word) {
		t.Fatalf("%q: Word %d, want %d, the ID of %q", form, tokens[1].Word, morph.WordID(word), word)
	}
	if vocab := morph.Current(); vocab.FormID(form) != 0 || morph.Words() != words {
		t.Fatalf("reading %q added it to the vocabulary", form)
	}
	ms := scanBoth(t, m, text)
	if len(ms) != 1 || ms[0].Label != word || ms[0].Text(text) != form {
		t.Fatalf("matches = %+v", ms)
	}
}

func TestAutomatonStaleFallsBack(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"alpha beta"})
	m.CompileNow()
	tokens := tokenizer.Tokenize("alpha beta gamma")
	if _, usedAut := m.ScanAppendAuto(nil, tokens); !usedAut {
		t.Fatal("expected automaton scan after CompileNow")
	}
	// A write republishes the snapshot; the automaton now trails and the
	// scan must fall back — and must see the new label immediately, in a
	// text tokenized after it (TestTokenizedBeforeLabel).
	m.AddObject(2, []string{"alpha beta gamma"})
	tokens = tokenizer.Tokenize("alpha beta gamma")
	ms, usedAut := m.ScanAppendAuto(nil, tokens)
	if usedAut {
		t.Fatal("stale automaton served a scan")
	}
	if len(ms) != 1 || ms[0].Label != "alpha beta gamma" {
		t.Fatalf("fallback matches = %+v", ms)
	}
	// Recompile: the automaton catches up and serves the same result.
	m.CompileNow()
	ms2, usedAut := m.ScanAppendAuto(nil, tokens)
	if !usedAut {
		t.Fatal("expected automaton scan after recompile")
	}
	assertSameMatches(t, ms, ms2, "alpha beta gamma")
}

func TestAutomatonInfo(t *testing.T) {
	m := New()
	info := m.AutomatonInfo()
	if info.Compiled || info.SnapshotGeneration != 0 {
		t.Fatalf("fresh info = %+v", info)
	}
	m.AddObject(1, []string{"planar graph", "graph"})
	m.CompileNow()
	info = m.AutomatonInfo()
	if !info.Compiled || info.Generation != 1 || info.SnapshotGeneration != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info.Labels != 2 || info.Words != 2 || info.MaxPhraseLen != 2 || info.Builds != 1 {
		t.Fatalf("info = %+v", info)
	}
	// states: root + planar + (planar)graph + graph = 4
	if info.States != 4 || info.Edges != 3 {
		t.Fatalf("info = %+v", info)
	}
}

// TestAutomatonScanZeroAlloc locks in the tentpole's allocation contract:
// with a recycled destination buffer, the automaton scan allocates nothing.
func TestAutomatonScanZeroAlloc(t *testing.T) {
	m := New()
	for i := 0; i < 50; i++ {
		m.AddObject(ObjectID(i), []string{
			fmt.Sprintf("concept %d", i),
			fmt.Sprintf("notion %d of order %d", i, i%7),
		})
	}
	m.CompileNow()
	tokens := tokenizer.Tokenize("the concept 7 relates the notion 3 of order 3 to concept 41 and more")
	dst := make([]Match, 0, 64)
	aut := m.comp.aut.Load()
	allocs := testing.AllocsPerRun(100, func() {
		dst = aut.scanAppend(dst[:0], tokens)
	})
	if allocs != 0 {
		t.Fatalf("automaton scan allocated %.1f times per run", allocs)
	}
	if len(dst) != 3 {
		t.Fatalf("matches = %+v", dst)
	}
}

// TestCompilerCatchesUp exercises the background path end to end: writes
// mark the generation dirty, the debounced compiler republishes, and the
// automaton converges to the latest snapshot generation.
func TestCompilerCatchesUp(t *testing.T) {
	m := New()
	m.StartCompiler(time.Millisecond)
	defer m.StopCompiler()
	for i := 0; i < 20; i++ {
		m.AddObject(ObjectID(i), []string{fmt.Sprintf("label number %d", i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		info := m.AutomatonInfo()
		if info.Compiled && info.Generation == info.SnapshotGeneration {
			if info.Labels != 20 {
				t.Fatalf("labels = %d", info.Labels)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("automaton never caught up: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCompilerConcurrentWrites is the race-detected property test from the
// issue: concurrent adds/removes while the background compiler churns must
// never publish a torn automaton (scans through ScanAppend stay equivalent
// to the chained scan of the same snapshot), and once writes quiesce the
// automaton converges to the final generation with identical results.
func TestCompilerConcurrentWrites(t *testing.T) {
	m := New()
	m.StartCompiler(0) // no debounce: maximize publish churn
	defer m.StopCompiler()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; !stop.Load(); i++ {
			id := ObjectID(rng.Intn(30))
			if rng.Intn(3) == 0 {
				m.RemoveObject(id)
			} else {
				m.AddObject(id, []string{
					fmt.Sprintf("alpha beta %d", id),
					fmt.Sprintf("gamma %d delta", rng.Intn(10)),
					"alpha beta gamma",
				})
			}
		}
	}()

	tokens := tokenizer.Tokenize("alpha beta 7 then gamma 3 delta and alpha beta gamma end")
	deadlineAut := time.After(2 * time.Second)
	autSeen := false
	// Readers: every scan must agree with the chained scan of the snapshot
	// the automaton was built from — i.e. an automaton scan is only ever
	// used when exact, and its output matches the fallback bit for bit.
	for done := false; !done; {
		select {
		case <-deadlineAut:
			done = true
		default:
		}
		snapBefore := m.snap.Load()
		got, usedAut := m.ScanAppendAuto(nil, tokens)
		if usedAut {
			autSeen = true
			// The automaton that served this scan was exact for some
			// snapshot ≥ snapBefore's generation; re-derive the chained
			// result from the automaton's own source snapshot.
			if aut := m.comp.aut.Load(); aut != nil && aut.src == snapBefore {
				want := snapBefore.scanChained(nil, tokens, true)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("automaton scan diverged:\nchained:   %+v\nautomaton: %+v", want, got)
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if !autSeen {
		t.Log("note: no scan was served by the automaton during churn (timing-dependent)")
	}

	// Quiesce: the compiler must converge, and the converged automaton must
	// agree with the chained scan exactly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info := m.AutomatonInfo()
		if info.Compiled && info.Generation == info.SnapshotGeneration {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("automaton never converged: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
	snap := m.snap.Load()
	want := snap.scanChained(nil, tokens, true)
	got, usedAut := m.ScanAppendAuto(nil, tokens)
	if !usedAut {
		t.Fatal("expected automaton scan after convergence")
	}
	assertSameMatches(t, want, got, "post-quiesce scan")
}

// TestWritesNeverStallOnCompile bounds write latency while the compiler
// rebuilds a large automaton: the write path only stores a pointer and pokes
// a non-blocking channel, so even with compiles in flight every AddObject
// must complete far faster than a compile.
func TestWritesNeverStallOnCompile(t *testing.T) {
	m := New()
	// A corpus big enough that one compile takes measurable time.
	for i := 0; i < 5000; i++ {
		m.AddObject(ObjectID(i), []string{
			fmt.Sprintf("concept %d alpha", i),
			fmt.Sprintf("big notion %d", i),
		})
	}
	m.StartCompiler(0)
	defer m.StopCompiler()

	worst := time.Duration(0)
	for i := 0; i < 500; i++ {
		start := time.Now()
		m.AddObject(ObjectID(10000+i), []string{fmt.Sprintf("fresh label %d", i)})
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	// Generous wall-clock bound: a write is a bucket-level COW plus an
	// atomic store. Even heavily loaded CI machines finish in well under
	// this; a write that waited for a multi-millisecond compile would trip.
	if worst > 250*time.Millisecond {
		t.Fatalf("slowest write took %v — write path appears to stall on compilation", worst)
	}
}

// TestCompilerDebouncesSustainedWrites holds the compiler to one build per
// debounce window while writes keep landing (it used to debounce the first
// build and then rebuild back to back, hundreds of times, each one stale
// before it was published): on a manual clock, a burst of writes inside one
// window builds nothing until the window closes and then builds exactly once.
func TestCompilerDebouncesSustainedWrites(t *testing.T) {
	const debounce = 25 * time.Millisecond
	clk := clock.NewManual(time.Unix(0, 0))
	t.Cleanup(clock.Install(clk))
	m := New()
	for i := 0; i < 2000; i++ {
		m.AddObject(ObjectID(i), []string{fmt.Sprintf("concept %d alpha", i)})
	}
	m.StartCompiler(debounce)
	defer m.StopCompiler()
	// poll waits in real time for the compiler goroutine, each round first
	// advancing the clock by step.
	poll := func(what string, step time.Duration, done func(AutomatonInfo) bool) AutomatonInfo {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			clk.Advance(step)
			if info := m.AutomatonInfo(); done(info) {
				return info
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, m.AutomatonInfo())
			}
		}
	}
	// The map was populated before the compiler started: its first build
	// does not wait for the debounce, so it needs no clock. A build counts
	// once it is published, so poll on Builds, never on what it published.
	initial := poll("no initial build", 0, func(info AutomatonInfo) bool { return info.Builds >= 1 })

	for i := 0; i < 500; i++ {
		m.AddObject(ObjectID(10000+i), []string{fmt.Sprintf("fresh label %d", i)})
	}
	if info := m.AutomatonInfo(); info.Builds != initial.Builds {
		t.Fatalf("%d builds before the debounce window closed, want %d", info.Builds, initial.Builds)
	}
	// Each round closes a window; the first closes the burst's unless the
	// compiler had not yet opened it.
	poll("automaton never caught up", debounce, func(info AutomatonInfo) bool {
		return info.Builds == initial.Builds+1 && info.Generation == info.SnapshotGeneration
	})
	// No write is pending, so further windows build nothing.
	clk.Advance(3 * debounce)
	if info := m.AutomatonInfo(); info.Builds != initial.Builds+1 {
		t.Errorf("%d builds after a burst inside one debounce window, want %d", info.Builds, initial.Builds+1)
	}
}

func TestStartCompilerIdempotent(t *testing.T) {
	m := New()
	m.StartCompiler(time.Millisecond)
	m.StartCompiler(time.Millisecond) // no-op, must not leak or panic
	m.AddObject(1, []string{"alpha"})
	m.StopCompiler()
	m.StopCompiler() // no-op
}
