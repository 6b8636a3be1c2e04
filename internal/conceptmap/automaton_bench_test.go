package conceptmap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nnexus/internal/tokenizer"
)

// benchMapAndText builds a synthetic PlanetMath-shaped concept map (nLabels
// multi-word labels over a Zipf-ish shared vocabulary) plus a text whose
// tokens overlap that vocabulary heavily, so the chained-hash scan pays its
// worst realistic cost: most positions hit a first-word chain and probe
// several phrase lengths.
func benchMapAndText(nLabels int) (*Map, []tokenizer.Token) {
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%d", i)
	}
	pick := func() string { return vocab[rng.Intn(len(vocab))] }
	labels := make([]string, nLabels)
	for i := range labels {
		n := 1 + rng.Intn(4)
		ws := make([]string, n)
		for j := range ws {
			ws[j] = pick()
		}
		labels[i] = strings.Join(ws, " ")
	}
	// Batch the labels into objects of ~5 labels each.
	m := New()
	for i := 0; i*5 < len(labels); i++ {
		hi := (i + 1) * 5
		if hi > len(labels) {
			hi = len(labels)
		}
		m.AddObject(ObjectID(i), labels[i*5:hi])
	}
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if rng.Intn(5) == 0 {
			// Plant a known label so the text has realistic match density.
			sb.WriteString(labels[rng.Intn(len(labels))])
		} else {
			sb.WriteString(pick())
		}
	}
	return m, tokenizer.Tokenize(sb.String())
}

// BenchmarkMatchScan is the match-stage A/B at PlanetMath scale (~10k
// labels): the chained-hash fallback versus the compiled Aho-Corasick
// automaton over identical tokens. The automaton sub-benchmark must report
// zero allocations.
func BenchmarkMatchScan(b *testing.B) {
	m, tokens := benchMapAndText(10000)
	snap := m.snap.Load()
	m.CompileNow()
	aut := m.comp.aut.Load()

	check := snap.scanChained(nil, tokens, true)
	if got := aut.scanAppend(nil, tokens); len(got) != len(check) {
		b.Fatalf("scan mismatch: chained=%d automaton=%d", len(check), len(got))
	}
	b.Logf("labels=%d tokens=%d matches=%d states=%d", m.Labels(), len(tokens), len(check), aut.nStates)

	b.Run("path=chained", func(b *testing.B) {
		dst := make([]Match, 0, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = snap.scanChained(dst[:0], tokens, true)
		}
		b.ReportMetric(float64(len(tokens))*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
	})
	b.Run("path=automaton", func(b *testing.B) {
		dst := make([]Match, 0, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = aut.scanAppend(dst[:0], tokens)
		}
		b.ReportMetric(float64(len(tokens))*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
	})
}
