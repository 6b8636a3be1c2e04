package core

import (
	"fmt"
	"testing"

	"nnexus/internal/corpus"
)

func TestRelinkInvalidatedParallel(t *testing.T) {
	e := fig1Engine(t, Config{})
	// Give many entries bodies mentioning a soon-to-exist concept.
	for id := int64(1); id <= 7; id++ {
		entry, _ := e.Entry(id)
		entry.Body = fmt.Sprintf("entry %d mentions a zonotope", id)
		if err := e.UpdateEntry(entry); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.AddEntry(&corpus.Entry{
		Domain: "planetmath.org", Title: "zonotope", Classes: []string{"05Cxx"},
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Invalidated()); n != 7 {
		t.Fatalf("invalidated = %d", n)
	}
	results, err := e.RelinkBatch(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("results = %d", len(results))
	}
	for id, res := range results {
		found := false
		for _, l := range res.Links {
			if l.Label == "zonotope" {
				found = true
			}
		}
		if !found {
			t.Errorf("entry %d missing zonotope link", id)
		}
	}
	if len(e.Invalidated()) != 0 {
		t.Error("flags not cleared")
	}
	// Empty case and default worker count.
	results, err = e.RelinkBatch(nil, 0)
	if err != nil || len(results) != 0 {
		t.Errorf("empty relink = %v, %v", results, err)
	}
}
