package conceptmap

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// TestSnapshotNeverTorn hammers the lock-free read path while a writer
// flips one object between two self-consistent label generations. Because
// every reader works from one atomically published snapshot, each Scan must
// observe exactly generation A or exactly generation B — never a mixture.
//
// Generation A defines the three-word phrase "alpha beta gamma"; generation
// B defines the two-word prefix "alpha beta" (plus an unrelated label).
// Scanning the text "alpha beta gamma" therefore yields exactly one match:
// the full phrase under A, the prefix under B. A torn chain — e.g. the
// three-word length still probed but the label already dropped, or both
// generations visible at once — would yield a different match shape.
func TestSnapshotNeverTorn(t *testing.T) {
	m := New()
	genA := []string{"alpha beta gamma"}
	genB := []string{"alpha beta", "delta epsilon"}
	m.AddObject(1, genA)

	tokens := tokenizer.Tokenize("alpha beta gamma")
	if len(tokens) != 3 {
		t.Fatalf("tokens = %d", len(tokens))
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup

	// Writer: alternate generations; a second writer churns an unrelated
	// object that shares the "alpha" chain, forcing chain COW on both.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				m.AddObject(1, genB)
			} else {
				m.AddObject(1, genA)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			m.AddObject(2, []string{"alpha zeta", fmt.Sprintf("noise%d", i%8)})
			m.RemoveObject(2)
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Match
			for n := 0; !stop.Load(); n++ {
				buf = m.ScanAppend(buf[:0], tokens)
				ok := false
				switch len(buf) {
				case 1:
					mt := buf[0]
					switch mt.Label {
					case "alpha beta gamma":
						ok = mt.TokenStart == 0 && mt.TokenEnd == 3 &&
							len(mt.Candidates) == 1 && mt.Candidates[0] == 1
					case "alpha beta":
						ok = mt.TokenStart == 0 && mt.TokenEnd == 2 &&
							len(mt.Candidates) == 1 && mt.Candidates[0] == 1
					}
				}
				if !ok {
					torn.Add(1)
				}
				// Lookup must agree with itself: a hit carries object 1.
				if ids := m.Lookup("alpha beta gamma"); ids != nil {
					if len(ids) != 1 || ids[0] != 1 {
						torn.Add(1)
					}
				}
			}
		}()
	}

	// Stat readers: counts are per-snapshot and must never go negative or
	// wildly out of range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s := m.Stats()
			if s.Labels < 0 || s.Labels > 5 || s.Objects < 0 || s.Objects > 3 {
				torn.Add(1)
			}
		}
	}()

	for i := 0; i < 2000; i++ {
		m.AddObject(3, []string{fmt.Sprintf("filler concept %d", i%16)})
		m.RemoveObject(3)
	}
	stop.Store(true)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Fatalf("observed %d torn snapshot reads", n)
	}
}

// TestConcurrentAddRemoveLookup runs many writers over disjoint objects
// while readers continuously scan; afterwards the map must exactly reflect
// the final generation of every object.
func TestConcurrentAddRemoveLookup(t *testing.T) {
	m := New()
	const writers = 4
	const perWriter = 200
	var stop atomic.Bool
	var wg sync.WaitGroup

	text := "planar graph of a finite group with a normal subgroup structure"
	tokens := tokenizer.Tokenize(text)
	m.AddObject(1000, []string{"planar graph", "finite group", "normal subgroup"})

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Match
			for !stop.Load() {
				buf = m.ScanAppend(buf[:0], tokens)
				for _, mt := range buf {
					if len(mt.Candidates) == 0 {
						t.Error("match with no candidates")
						return
					}
					for i := 1; i < len(mt.Candidates); i++ {
						if mt.Candidates[i-1] >= mt.Candidates[i] {
							t.Error("candidates not sorted")
							return
						}
					}
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				id := ObjectID(w*perWriter + i)
				m.AddObject(id, []string{fmt.Sprintf("writer%d concept %d", w, i), "planar graph"})
				if i%3 == 0 {
					m.RemoveObject(id)
				}
			}
		}(w)
	}
	writerWG.Wait()
	stop.Store(true)
	wg.Wait()

	// Verify final state exactly: every surviving object is findable, every
	// removed one is gone.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := ObjectID(w*perWriter + i)
			labels := m.LabelsOf(id)
			if i%3 == 0 {
				if len(labels) != 0 {
					t.Fatalf("object %d should be removed, has labels %v", id, labels)
				}
			} else if len(labels) != 2 {
				t.Fatalf("object %d labels = %v", id, labels)
			}
		}
	}
	ids := m.Lookup("planar graph")
	want := 1 // object 1000
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if i%3 != 0 {
				want++
			}
		}
	}
	if len(ids) != want {
		t.Fatalf("planar graph candidates = %d, want %d", len(ids), want)
	}
}

// TestLengthRefcounts exercises the binary-search length maintenance: many
// labels of equal word counts under one first word, removed in arbitrary
// order, must keep the longest-first probe order intact.
func TestLengthRefcounts(t *testing.T) {
	m := New()
	// Three 2-word labels, two 3-word labels, one 1-word label — all
	// chained under "zorn".
	m.AddObject(1, []string{"zorn lemma", "zorn set", "zorn pair", "zorn lemma proof", "zorn pair bound", "zorn"})
	scan := func(text string) []Match {
		return m.Scan(tokenizer.Tokenize(text))
	}
	if ms := scan("zorn lemma proof"); len(ms) != 1 || ms[0].Label != "zorn lemma proof" {
		t.Fatalf("longest-first probe broken: %+v", ms)
	}
	// Dropping one 3-word label must keep 3-word probing alive (refcount).
	m.AddObject(1, []string{"zorn lemma", "zorn set", "zorn pair", "zorn pair bound", "zorn"})
	if ms := scan("zorn pair bound"); len(ms) != 1 || ms[0].Label != "zorn pair bound" {
		t.Fatalf("3-word probe dropped too early: %+v", ms)
	}
	if ms := scan("zorn lemma proof"); len(ms) != 1 || ms[0].Label != "zorn lemma" {
		t.Fatalf("removed label still matches: %+v", ms)
	}
	// Dropping the last 3-word label must retire the length.
	m.AddObject(1, []string{"zorn lemma", "zorn"})
	if ms := scan("zorn pair bound"); len(ms) != 1 || ms[0].Label != "zorn" {
		t.Fatalf("after retiring lengths: %+v", ms)
	}
	// And the chain disappears entirely with the object.
	m.RemoveObject(1)
	if ms := scan("zorn lemma proof"); len(ms) != 0 {
		t.Fatalf("chain not removed: %+v", ms)
	}
	if m.Labels() != 0 || m.Objects() != 0 {
		t.Fatalf("map not empty: %s", m)
	}
}

// TestScanWhileVocabularyGrows runs two readers that tokenize and scan a text
// against a compiled map while two writers intern new surface forms and
// words, growing the vocabulary's table several times under them (run under
// -race). Every reader's tokens must resolve as they did before the writers
// started, and every scan must return the same matches.
func TestScanWhileVocabularyGrows(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"planar graph", "graph"})
	m.AddObject(2, []string{"orthogonal functions"})
	m.CompileNow()
	text := "Every planar graph has an orthogonal function; graphs are planar."
	tokenizer.TokenizeInternAppend(nil, text)
	wantTokens := tokenizer.Tokenize(text)
	want, _ := m.ScanAppendAuto(nil, wantTokens)
	if len(want) != 3 {
		t.Fatalf("matches = %+v", want)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20000 && !stop.Load(); i++ {
				morph.Intern(fmt.Sprintf("Growing%dForm%d", w, i))
				morph.InternWord(fmt.Sprintf("growing%dword%d", w, i))
			}
		}(w)
	}
	errs := make(chan string, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tokens []tokenizer.Token
			var got []Match
			for n := 0; n < 2000; n++ {
				tokens = tokenizer.TokenizeAppend(tokens[:0], text)
				got, _ = m.ScanAppendAuto(got[:0], tokens)
				if !reflect.DeepEqual(tokens, wantTokens) || !reflect.DeepEqual(got, want) {
					errs <- fmt.Sprintf("tokens %+v, matches %+v", tokens, got)
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
