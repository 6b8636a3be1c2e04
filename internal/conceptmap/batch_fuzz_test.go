package conceptmap

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nnexus/internal/tokenizer"
)

// batchPool is the label pool FuzzBatchEquivalence draws from: labels that
// share first words, nest inside one another and normalize to one another,
// so that objects keep landing in the same buckets, chains and label
// entries.
var batchPool = []string{
	"graph", "graphs", "planar graph", "planar graphs", "graph theory",
	"planar", "a", "a b", "a b c", "b c", "b", "c a b", "x y z", "y",
}

// FuzzBatchEquivalence: a sequence of adds, re-adds and removes applied
// through one Writer — one generation — leaves the map exactly as the same
// sequence applied as one AddObject or RemoveObject call each: every pool
// label looks up the same objects, every object holds the same labels, the
// counts agree, and random token streams scan to the same matches by the
// chained-hash walk and by the compiled automaton. A prefix of the sequence
// is applied call by call to both maps first, so the batch also starts from
// published buckets it has to clone.
//
// Each op is three bytes: the op (even adds, odd removes), the object
// (0–7), and which pool labels an add gives it (a bit per label of a
// window of the pool the op's byte picks).
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 0x07, 2, 2, 0x1f, 0, 1, 0x30, 1, 2, 0, 4, 3, 0xff})
	f.Add(byte(2), []byte{0, 0, 0xff, 0, 1, 0xff, 1, 0, 0, 0, 0, 0x01, 3, 1, 0})
	f.Add(byte(1), []byte{6, 5, 0x55, 8, 5, 0xaa, 7, 5, 0, 10, 5, 0x0f, 12, 6, 0x81})
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, pre byte, ops []byte) {
		if len(ops) > 3*64 {
			return
		}
		type op struct {
			remove bool
			id     ObjectID
			labels []string
		}
		var seq []op
		for i := 0; i+3 <= len(ops); i += 3 {
			o := op{remove: ops[i]%2 == 1, id: ObjectID(ops[i+1] % 8)}
			for bit := 0; bit < 8; bit++ {
				if ops[i+2]&(1<<bit) != 0 {
					o.labels = append(o.labels, batchPool[(int(ops[i]/2)+bit)%len(batchPool)])
				}
			}
			seq = append(seq, o)
		}
		one, batched := New(), New()
		call := func(m *Map, o op) {
			if o.remove {
				m.RemoveObject(o.id)
			} else {
				m.AddObject(o.id, o.labels)
			}
		}
		split := int(pre) % (len(seq) + 1)
		for _, o := range seq {
			call(one, o)
		}
		for _, o := range seq[:split] {
			call(batched, o)
		}
		w := batched.Begin()
		for _, o := range seq[split:] {
			if o.remove {
				w.Remove(o.id)
			} else {
				w.Add(o.id, o.labels)
			}
		}
		w.Publish()

		for _, l := range batchPool {
			if a, b := one.Lookup(l), batched.Lookup(l); !reflect.DeepEqual(a, b) {
				t.Fatalf("Lookup(%q): one call each %v, one batch %v", l, a, b)
			}
		}
		for id := ObjectID(0); id < 8; id++ {
			if a, b := one.LabelsOf(id), batched.LabelsOf(id); !reflect.DeepEqual(a, b) {
				t.Fatalf("LabelsOf(%d): one call each %q, one batch %q", id, a, b)
			}
		}
		if a, b := one.Stats(), batched.Stats(); a != b {
			t.Fatalf("Stats: one call each %+v, one batch %+v", a, b)
		}
		if one.Labels() != batched.Labels() || one.Objects() != batched.Objects() {
			t.Fatalf("counts: one call each %d labels %d objects, one batch %d labels %d objects",
				one.Labels(), one.Objects(), batched.Labels(), batched.Objects())
		}

		rng := rand.New(rand.NewSource(int64(len(ops))<<8 | int64(pre)))
		var words []string
		for _, l := range batchPool {
			words = append(words, strings.Fields(l)...)
		}
		texts := make([]string, 8)
		for i := range texts {
			parts := make([]string, rng.Intn(24))
			for j := range parts {
				parts[j] = words[rng.Intn(len(words))]
			}
			texts[i] = strings.Join(parts, " ")
		}
		scans := func(m *Map) [][]Match {
			var out [][]Match
			for _, text := range texts {
				tokens := tokenizer.Tokenize(text)
				auto, _ := m.ScanAppendAuto(nil, tokens)
				out = append(out, auto, m.ScanAllAppend(nil, tokens))
			}
			return out
		}
		want := scans(one)
		if got := scans(batched); !reflect.DeepEqual(want, got) {
			t.Fatalf("chained-hash scans differ:\none call each %+v\none batch %+v\ntexts %q", want, got, texts)
		}
		one.CompileNow()
		batched.CompileNow()
		if got := scans(one); !reflect.DeepEqual(want, got) {
			t.Fatalf("one call each: compiled scans differ from chained:\n%+v\n%+v", want, got)
		}
		if got := scans(batched); !reflect.DeepEqual(want, got) {
			t.Fatalf("one batch: compiled scans differ from one call each's chained:\n%+v\n%+v\ntexts %q", want, got, texts)
		}
	})
}
