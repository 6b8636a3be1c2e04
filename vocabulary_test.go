package nnexus_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"nnexus"
	"nnexus/internal/morph"
)

// TestReadInputNeverGrowsVocabulary links a million distinct random words in
// process and another million over the wire, and holds the process's word
// vocabulary and label table to the lengths they had: only stored bodies,
// concept labels and policies enter them, so what a server is asked to link
// cannot fill them. The heap may not grow by a fiftieth of what keeping those
// words would cost (some 100 bytes each).
func TestReadInputNeverGrowsVocabulary(t *testing.T) {
	e := newTestEngine(t, nnexus.Config{})
	if _, err := e.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
		Body: "A planar graph embeds in the plane.",
	}); err != nil {
		t.Fatal(err)
	}
	srv, addr, err := e.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := nnexus.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(14))
	const words, perText = 1 << 20, 1 << 13
	text := func() string {
		var b strings.Builder
		b.WriteString("a planar graph")
		for i := 0; i < perText; i++ {
			b.WriteByte(' ')
			for n := 0; n < 9; n++ {
				b.WriteByte(byte('a' + rng.Intn(26)))
			}
			b.WriteByte(byte('a' + i%26)) // distinct from the body's words
		}
		return b.String()
	}
	link := map[string]func(string) (int, error){
		"in process": func(s string) (int, error) {
			res, err := e.LinkText(s, nnexus.LinkOptions{})
			if err != nil {
				return 0, err
			}
			return len(res.Links), nil
		},
		"over the wire": func(s string) (int, error) {
			linked, err := c.LinkText(s, nil, "", "", "")
			if err != nil {
				return 0, err
			}
			return len(linked.Links), nil
		},
	}
	for _, door := range []string{"in process", "over the wire"} {
		link[door](text()) // warm buffers and pools
		wordsBefore, labelsBefore := morph.Words(), morph.Labels()
		heapBefore := heapInUse()
		for n := 0; n < words/perText; n++ {
			links, err := link[door](text())
			if err != nil {
				t.Fatal(err)
			}
			if links != 1 {
				t.Fatalf("%s: %d links, want the one planar graph", door, links)
			}
		}
		if w := morph.Words(); w != wordsBefore {
			t.Errorf("%s: linking grew the vocabulary from %d words to %d", door, wordsBefore, w)
		}
		if l := morph.Labels(); l != labelsBefore {
			t.Errorf("%s: linking grew the label table from %d labels to %d", door, labelsBefore, l)
		}
		grew := int64(heapInUse()) - int64(heapBefore)
		t.Logf("%s: heap %+d bytes", door, grew)
		if grew > 2<<20 {
			t.Errorf("%s: the heap grew by %d bytes linking %d words", door, grew, words)
		}
	}
}

func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
