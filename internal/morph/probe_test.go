package morph_test

import (
	"strings"
	"testing"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
	"nnexus/internal/workload"
)

// TestVocabProbeLength holds the probe a read spends on each token of a stored
// body — a FormID hit — to few slots: it interns a generated corpus as the
// write path does (each entry's label words, then its body's forms) into a
// vocabulary of its own and walks every body token's probe. A word and the
// surface form spelled the same, which most forms are, once hashed alike and
// sat in one chain, so that a hit read 2.17 slots on average in a table 36%
// full.
func TestVocabProbeLength(t *testing.T) {
	c, err := workload.Generate(workload.DefaultParams(3000))
	if err != nil {
		t.Fatal(err)
	}
	v := morph.NewProbeVocab()
	for _, ge := range c.Entries {
		for _, label := range ge.Entry.Labels() {
			for _, w := range strings.Fields(morph.NormalizeLabel(label)) {
				v.InternWord(w)
			}
		}
		body := ge.Entry.Body
		for _, tok := range tokenizer.Tokenize(body) {
			v.Intern(body[tok.Start:tok.End])
		}
	}
	hits, probes := 0, 0
	for _, ge := range c.Entries {
		body := ge.Entry.Body
		for _, tok := range tokenizer.Tokenize(body) {
			n := v.FormProbes(body[tok.Start:tok.End])
			if n == 0 {
				t.Fatalf("%q was interned and is not found", body[tok.Start:tok.End])
			}
			hits, probes = hits+1, probes+n
		}
	}
	keys, slots := v.Keys()
	mean := float64(probes) / float64(hits)
	t.Logf("%d keys in %d slots: %d hits, %.3f probes per hit", keys, slots, hits, mean)
	if mean > 1.4 {
		t.Errorf("a FormID hit reads %.3f slots on average, want at most 1.4", mean)
	}
}
