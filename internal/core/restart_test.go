package core

import (
	"fmt"
	"math/rand"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
	"nnexus/internal/storage"
)

// Property: after any random sequence of adds, updates, removals, and
// policy changes, an engine restarted from its persistent store produces
// byte-identical linking results for every entry: restarted after its store
// was closed under it, which rebuilds the invalidation index, and again after
// a clean Close, which reads the index it saved.
func TestRestartEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			store, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(Config{Scheme: classification.SampleMSC(10), Store: store})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddDomain(corpus.Domain{
				Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
			}); err != nil {
				t.Fatal(err)
			}
			classes := []string{"05C10", "05C40", "05C99", "03E20", "11A51", "51A05"}
			words := []string{"widget", "gadget", "sprocket", "flange", "gizmo",
				"doohickey", "whatsit", "contraption"}
			var live []int64
			for step := 0; step < 60; step++ {
				switch rng.Intn(10) {
				case 0, 1: // remove
					if len(live) > 0 {
						i := rng.Intn(len(live))
						if err := e.RemoveEntry(live[i]); err != nil {
							t.Fatal(err)
						}
						live = append(live[:i], live[i+1:]...)
					}
				case 2: // policy
					if len(live) > 0 {
						id := live[rng.Intn(len(live))]
						entry, _ := e.Entry(id)
						if err := e.SetPolicy(id, "forbid "+entry.Title); err != nil {
							t.Fatal(err)
						}
					}
				case 3: // update body
					if len(live) > 0 {
						id := live[rng.Intn(len(live))]
						entry, _ := e.Entry(id)
						entry.Body = fmt.Sprintf("updated body mentions a %s and a %s",
							words[rng.Intn(len(words))], words[rng.Intn(len(words))])
						if err := e.UpdateEntry(entry); err != nil {
							t.Fatal(err)
						}
					}
				default: // add
					title := fmt.Sprintf("%s %s", words[rng.Intn(len(words))],
						words[rng.Intn(len(words))])
					entry := &corpus.Entry{
						Domain:  "planetmath.org",
						Title:   fmt.Sprintf("%s %d", title, step),
						Classes: []string{classes[rng.Intn(len(classes))]},
						Body: fmt.Sprintf("a body invoking the %s and maybe a %s",
							words[rng.Intn(len(words))], title),
					}
					id, err := e.AddEntry(entry)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				}
				if rng.Intn(15) == 0 {
					if err := store.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Capture every entry's rendering before restart.
			before := make(map[int64]string, len(live))
			for _, id := range live {
				res, err := e.LinkEntry(id, LinkOptions{})
				if err != nil {
					t.Fatal(err)
				}
				before[id] = res.Output
			}
			beforeInvalid := fmt.Sprint(e.Invalidated())
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			for _, clean := range []bool{false, true} {
				store2, err := storage.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				e2, err := NewEngine(Config{Scheme: classification.SampleMSC(10), Store: store2})
				if err != nil {
					t.Fatal(err)
				}
				if e2.indexesRead != clean {
					t.Fatalf("restart after a clean Close %v read the saved index: %v", clean, e2.indexesRead)
				}
				if e2.NumEntries() != len(live) {
					t.Fatalf("entries after restart = %d, want %d", e2.NumEntries(), len(live))
				}
				if got := fmt.Sprint(e2.Invalidated()); got != beforeInvalid {
					t.Errorf("invalidation set changed: %s vs %s", got, beforeInvalid)
				}
				for id, want := range before {
					res, err := e2.LinkEntry(id, LinkOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if res.Output != want {
						t.Fatalf("entry %d renders differently after restart:\nbefore: %s\nafter:  %s",
							id, want, res.Output)
					}
				}
				// Linking cleared no flag: every entry was linked before the first restart.
				if err := e2.Close(); err != nil {
					t.Fatal(err)
				}
				if err := store2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
