package invindex

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// equivVocab is small enough that n-grams repeat, within one entry and
// across entries, and every word is its own normal form.
var equivVocab = []string{"ring", "group", "field", "ideal", "prime"}

// equivProbes are asked after every op: every label of one and two words,
// and some that run past the longest phrase bound runIndexOps draws (8).
var equivProbes = func() []string {
	var out []string
	for _, a := range equivVocab {
		out = append(out, a)
		for _, b := range equivVocab {
			out = append(out, a+" "+b)
		}
	}
	return append(out,
		"ring ring ring", "ring group field", "prime ideal ring group",
		"group group group group group", "field ideal prime ring group field",
		"ring group field ideal prime ring group", "ring ring ring ring ring ring ring ring ring",
		"group field ideal prime ring group field ideal prime", "ring unseen", "unseen ring", "")
}()

// runIndexOps reads an op sequence off data and applies it to an Index and
// to the reference, comparing every answer after every op. The first three
// bytes pick the options; after that one byte picks the op and the bytes
// that follow feed it. With a midway function, the Index is replaced by what
// it returns once half the ops' bytes are read, given every probe so far.
func runIndexOps(t *testing.T, data []byte, midway func(ix *Index, ref *refIndex, probes []string) *Index) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	maxLen := 1 + next()%8 // past 1+runMore: a new run takes more than one node
	opts := []Option{WithMaxPhraseLen(maxLen)}
	every, below := 0, 0
	if auto := next(); auto%3 != 0 {
		every, below = 1+auto%7, 1+next()%3
		opts = append(opts, WithAutoCompact(every, below))
	}
	ix, ref := New(opts...), newRefIndex(maxLen, every, below)
	half := len(data) / 2
	seen := slices.Clone(equivProbes)

	var live []int64 // IDs added and not removed, in order of first add
	up, down := int64(0), int64(0)
	words := func() []string {
		toks := make([]string, next()%12)
		for i := range toks {
			toks[i] = equivVocab[next()%len(equivVocab)]
		}
		return toks
	}
	add := func(id int64, viaText bool) []string {
		toks := words()
		if viaText {
			text := strings.Join(toks, " ")
			ix.AddText(id, text)
			ref.AddText(id, text)
		} else {
			ix.AddTokens(id, toks)
			ref.AddTokens(id, toks)
		}
		return toks
	}
	for step := 0; len(data) > 0; step++ {
		var last []string // the text the op added, for probes that hit
		switch op := next() % 11; op {
		case 0, 1, 2, 3: // a new entry, IDs rising as on import
			up++
			live = append(live, up)
			last = add(up, op == 0)
		case 4: // an ID below every one seen so far
			down--
			live = append(live, down)
			last = add(down, false)
		case 5, 6: // re-add a live entry with a new text
			if len(live) > 0 {
				last = add(live[next()%len(live)], op == 5)
			}
		case 7: // remove a live entry
			if len(live) > 0 {
				i := next() % len(live)
				ix.Remove(live[i])
				ref.Remove(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		case 8: // remove an absent one
			ix.Remove(up + 1000)
			ref.Remove(up + 1000)
		case 9:
			minCount := 1 + next()%3
			if got, want := ix.Compact(minCount), ref.Compact(minCount); got != want {
				t.Fatalf("step %d: Compact(%d) = %d, reference %d", step, minCount, got, want)
			}
		case 10: // an ID either side of the largest one a node holds inline
			id := int64(math.MaxInt32 - 3 + next()%5)
			if !slices.Contains(live, id) {
				live = append(live, id)
			}
			last = add(id, false)
		}
		probes := slices.Clone(equivProbes)
		for n := 1; n <= 9 && n <= len(last); n++ {
			for _, i := range []int{0, (len(last) - n) / 2, len(last) - n} {
				probes = append(probes, strings.Join(last[i:i+n], " "))
			}
		}
		sameAnswers(t, fmt.Sprintf("step %d", step), ix, ref, probes)
		seen = append(seen, probes[len(equivProbes):]...)
		if midway != nil && len(data) <= half {
			ix, midway = midway(ix, ref, seen), nil
		}
	}
}

// sameAnswers holds ix to ref on Stats, Keys and the three lookups of every
// probe.
func sameAnswers(t *testing.T, where string, ix *Index, ref *refIndex, probes []string) {
	t.Helper()
	got, want := ix.Stats(), ref.Stats()
	got.Bytes = 0 // the reference does not account for itself
	if got != want {
		t.Fatalf("%s: Stats = %+v, reference %+v", where, got, want)
	}
	if got, want := ix.Keys(), ref.Keys(); got != want {
		t.Fatalf("%s: Keys = %d, reference %d", where, got, want)
	}
	for _, p := range probes {
		if got, want := ix.Lookup(p), ref.Lookup(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Lookup(%q) = %v, reference %v", where, p, got, want)
		}
		if got, want := ix.LookupWordUnion(p), ref.LookupWordUnion(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LookupWordUnion(%q) = %v, reference %v", where, p, got, want)
		}
		if got, want := ix.Contains(p), ref.Contains(p); got != want {
			t.Fatalf("%s: Contains(%q) = %v, reference %v", where, p, got, want)
		}
	}
}

// indexSeeds start FuzzIndexEquivalence and run on every `go test`: the
// Fig 6 shape, a re-add after a compaction, an out-of-order ID,
// auto-compaction on every add with the threshold above one, and one word
// whose inline posting spills into a list and is removed again, at small IDs
// and at the largest ones.
var indexSeeds = [][]byte{
	{},
	{4, 0, 0, 1, 5, 0, 1, 2, 3, 4, 1, 3, 1, 2, 3, 9, 1, 5, 0, 4, 0, 1, 2, 3},
	{2, 0, 0, 1, 3, 0, 1, 0, 9, 2, 1, 3, 0, 1, 0, 7, 0, 1, 3, 0, 1, 0},
	{4, 1, 1, 4, 6, 0, 1, 0, 1, 0, 1, 4, 3, 0, 1, 0, 1, 3, 0, 1, 8, 7, 1},
	{0, 2, 2, 1, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 2, 0, 0},
	{0, 0, 0, 1, 0, 1, 1, 0, 7, 0, 7, 0, 10, 1, 1, 0, 10, 2, 1, 0, 10, 3, 1, 1, 10, 4, 2, 0, 1, 7, 0, 7, 0, 9, 2},
}

func FuzzIndexEquivalence(f *testing.F) {
	for _, s := range indexSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runIndexOps(t, data, nil) })
}

// TestIndexMatchesReference is the fuzz target's body on its seeds and on
// thirty random op sequences long enough for several auto-compactions.
func TestIndexMatchesReference(t *testing.T) {
	for _, s := range indexSeeds {
		runIndexOps(t, s, nil)
	}
	for seed := int64(0); seed < 30; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runIndexOps(t, data, nil)
	}
}

// TestRunSplits walks into runs the three ways the fuzzer must keep
// reaching, on Index and on the reference alike, and counts the nodes each
// leaves (the root's included): a walk that stops inside a live run, one
// that leaves a tombstoned run midway (and one that stops inside it, which
// changes nothing and splits nothing), and a Remove and a re-add across a
// split.
func TestRunSplits(t *testing.T) {
	const five = "ring group field ideal prime" // one fresh run per start
	type op struct {
		id      int64
		text    string // "" removes id
		compact int    // Compact(compact) instead, if not 0
	}
	for _, tc := range []struct {
		name  string
		ops   []op
		nodes int
	}{
		{"stop inside a live run", []op{{id: 1, text: five}, {id: 2, text: "ring group field"}}, 12},
		{"leave a tombstoned run", []op{
			{id: 1, text: five}, {compact: 5}, {id: 2, text: "ring group field prime"}, {id: 3, text: "group field ideal"},
		}, 15},
		{"remove and re-add across a split", []op{
			{id: 1, text: five}, {id: 2, text: "ring group field"}, {id: 1}, {id: 1, text: five},
			{compact: 3}, {id: 2, text: "ring group"}, {id: 2}, {id: 2, text: "ring group field ideal"},
		}, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, ref := New(), newRefIndex(DefaultMaxPhraseLen, 0, 0)
			probes, words := slices.Clone(equivProbes), strings.Fields(five)
			for i := range words {
				for j := i + 1; j <= len(words); j++ {
					probes = append(probes, strings.Join(words[i:j], " "))
				}
			}
			for step, o := range tc.ops {
				switch {
				case o.compact != 0:
					if got, want := ix.Compact(o.compact), ref.Compact(o.compact); got != want {
						t.Fatalf("op %d: Compact(%d) = %d, reference %d", step, o.compact, got, want)
					}
				case o.text == "":
					ix.Remove(o.id)
					ref.Remove(o.id)
				default:
					ix.AddText(o.id, o.text)
					ref.AddText(o.id, o.text)
				}
				sameAnswers(t, fmt.Sprintf("op %d", step), ix, ref, probes)
			}
			if nodes := len(ix.pages[0]); len(ix.pages) != 1 || nodes != tc.nodes {
				t.Errorf("%d pages, %d nodes, want %d", len(ix.pages), nodes, tc.nodes)
			}
		})
	}
}
