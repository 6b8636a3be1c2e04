package core

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"nnexus/internal/corpus"
	"nnexus/internal/workload"
)

// linkGoldenDigest is TestLinkGolden's digest as computed at commit dc02616,
// before render, the tokenizer and the resolve stage were rewritten in place.
const linkGoldenDigest = "05d9e076388ba1ce621568f1cc7b0a56c7ddecb473191a54bd7a3fcb128ab7eb"

// hashResult writes everything a caller can observe of one link result.
func hashResult(w io.Writer, res *Result) {
	fmt.Fprintf(w, "%d %q\n", res.Source, res.Output)
	for _, l := range res.Links {
		fmt.Fprintf(w, "L %q %d %d %q %d %q %q %q %d %d\n", l.Label, l.Start, l.End, l.Text,
			l.Target, l.TargetDomain, l.TargetTitle, l.URL, l.Distance, l.Candidates)
	}
	for _, s := range res.Skips {
		fmt.Fprintf(w, "S %q %d %d %q\n", s.Label, s.Start, s.End, s.Reason)
	}
}

// TestLinkGolden pins the whole Fig 2 pipeline to the bytes it produced
// before its stages were rewritten: every entry of a 300-entry generated
// corpus (every third entry in the "wiki" namespace, the common-word
// policies installed) linked in all three modes, plus ten multi-target
// free-text documents. The URL template carries both placeholders and an
// ampersand, so URL expansion and attribute escaping are under the digest.
func TestLinkGolden(t *testing.T) {
	c, err := workload.Generate(workload.DefaultParams(300))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Scheme: c.Scheme})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddDomain(corpus.Domain{
		Name:        "planetmath.example",
		URLTemplate: "http://planetmath.example/?op=getobj&id={id}&t={title}",
		Scheme:      c.Scheme.Name(),
		Priority:    1,
	}); err != nil {
		t.Fatal(err)
	}
	for i, ge := range c.Entries {
		entry := *ge.Entry
		entry.Domain = "planetmath.example"
		if i%3 == 0 {
			entry.Corpus = "wiki"
		}
		if _, err := e.AddEntry(&entry); err != nil {
			t.Fatal(err)
		}
	}
	labels := make([]string, 0, len(c.CommonDefiners))
	for label := range c.CommonDefiners {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		idx, text, err := c.PolicyFor(label)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetPolicy(int64(idx), text); err != nil {
			t.Fatal(err)
		}
	}

	h := sha256.New()
	links := 0
	for _, mode := range []Mode{ModeLexical, ModeSteered, ModeSteeredPolicies} {
		for id := int64(1); id <= int64(len(c.Entries)); id++ {
			res, err := e.LinkEntry(id, LinkOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			hashResult(h, res)
			links += len(res.Links)
		}
	}
	for i := 0; i < 10; i++ {
		first := c.Entries[30*i].Entry
		doc := strings.Join([]string{first.Body, c.Entries[30*i+1].Entry.Body, c.Entries[30*i+2].Entry.Body}, "\n\n")
		res, err := e.LinkText(doc, LinkOptions{SourceClasses: first.Classes, TargetCorpora: []string{"wiki", "default"}})
		if err != nil {
			t.Fatal(err)
		}
		hashResult(h, res)
		links += len(res.Links)
	}
	if links < 3000 {
		t.Fatalf("only %d links under the digest", links)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != linkGoldenDigest {
		t.Errorf("link digest %s, want %s", got, linkGoldenDigest)
	}
}
