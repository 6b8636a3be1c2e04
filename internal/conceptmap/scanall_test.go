package conceptmap

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nnexus/internal/tokenizer"
)

// greedyFilter runs the engine's greedy walk (core's assemble) over an
// all-positions match stream sorted by TokenStart: accept a match starting
// at or past the previous winner's end, drop shadowed ones. Applied to one
// map's ScanAllAppend stream, or to the merged streams of maps that split a
// label space between them, it must reproduce ScanAppend exactly.
func greedyFilter(all []Match) []Match {
	var out []Match
	nextFree := 0
	for _, m := range all {
		if m.TokenStart < nextFree {
			continue
		}
		out = append(out, m)
		nextFree = m.TokenEnd
	}
	return out
}

// TestScanAllGreedyEquivalence is the in-package half of the multi-target
// merge's equivalence argument (core's scan over several corpora): for one
// map, greedyFilter(ScanAllAppend) == ScanAppend on arbitrary token streams,
// including overlapping phrases ("orthogonal function" vs "function space")
// where the non-greedy stream contains matches the greedy walk must shadow.
func TestScanAllGreedyEquivalence(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"orthogonal function", "orthogonal"})
	m.AddObject(2, []string{"function space", "function"})
	m.AddObject(3, []string{"space", "banach space"})
	m.AddObject(4, []string{"group action on a set"})
	m.AddObject(5, []string{"group", "set"})

	texts := []string{
		"the orthogonal function space of a banach space",
		"a group action on a set and a group",
		"function orthogonal function space set",
		"",
		"nothing matches here at all",
	}
	for _, text := range texts {
		tokens := tokenizer.Tokenize(text)
		want := m.ScanAppend(nil, tokens)
		got := greedyFilter(m.ScanAllAppend(nil, tokens))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("text %q:\n greedy(all) = %+v\n scan        = %+v", text, got, want)
		}
	}
}

// TestScanAllPartitionedEquivalence splits the label space across k
// disjoint maps by first word, merges their
// ScanAllAppend streams in TokenStart order, greedy-filters, and checks the
// result matches the single map's ScanAppend — randomized over many
// synthetic vocabularies and texts.
func TestScanAllPartitionedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20090601))
	words := []string{"group", "ring", "field", "space", "function", "set",
		"map", "graph", "matrix", "norm", "basis", "kernel"}
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(3)
		full := New()
		parts := make([]*Map, k)
		for i := range parts {
			parts[i] = New()
		}
		owner := func(first string) int {
			h := 0
			for i := 0; i < len(first); i++ {
				h = h*31 + int(first[i])
			}
			return h % k
		}
		nObjects := 1 + rng.Intn(8)
		for id := 1; id <= nObjects; id++ {
			nLabels := 1 + rng.Intn(4)
			labels := make([]string, 0, nLabels)
			for j := 0; j < nLabels; j++ {
				n := 1 + rng.Intn(3)
				ws := make([]string, n)
				for l := range ws {
					ws[l] = words[rng.Intn(len(words))]
				}
				labels = append(labels, strings.Join(ws, " "))
			}
			full.AddObject(ObjectID(id), labels)
			// Project each label to its owning map only.
			byPart := make([][]string, k)
			for _, lab := range labels {
				s := owner(strings.Fields(lab)[0])
				byPart[s] = append(byPart[s], lab)
			}
			for s, labs := range byPart {
				if len(labs) > 0 {
					parts[s].AddObject(ObjectID(id), labs)
				}
			}
		}
		nTok := rng.Intn(30)
		ws := make([]string, nTok)
		for i := range ws {
			ws[i] = words[rng.Intn(len(words))]
		}
		text := strings.Join(ws, " ")
		tokens := tokenizer.Tokenize(text)

		want := full.ScanAppend(nil, tokens)
		var all []Match
		for _, p := range parts {
			all = p.ScanAllAppend(all, tokens)
		}
		// Merge the per-map streams into TokenStart order. Each stream is
		// already sorted; a simple stable insertion keeps the test honest.
		sortMatches(all)
		got := greedyFilter(all)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d) text %q:\n merged = %+v\n single = %+v",
				trial, k, text, got, want)
		}
	}
}

// sortMatches orders matches by TokenStart. At one start position only one
// match can exist per map, and disjoint label ownership means only one map
// ever matches a given position, so no tie-break is needed.
func sortMatches(ms []Match) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].TokenStart < ms[j-1].TokenStart; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// TestScanAllReportsEveryPosition pins the non-greedy contract itself:
// after a multi-word match at i, position i+1 is still probed.
func TestScanAllReportsEveryPosition(t *testing.T) {
	m := New()
	m.AddObject(1, []string{"orthogonal function"})
	m.AddObject(2, []string{"function space"})
	tokens := tokenizer.Tokenize("orthogonal function space")
	all := m.ScanAllAppend(nil, tokens)
	if len(all) != 2 {
		t.Fatalf("got %d matches, want 2 (overlapping): %+v", len(all), all)
	}
	if all[0].Label != "orthogonal function" || all[1].Label != "function space" {
		t.Fatalf("unexpected matches: %+v", all)
	}
	// The greedy scan keeps only the first.
	greedy := m.ScanAppend(nil, tokens)
	if len(greedy) != 1 || greedy[0].Label != "orthogonal function" {
		t.Fatalf("greedy scan: %+v", greedy)
	}
}
