package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
)

// testScheme builds a small built scheme for view tests.
func viewScheme(t *testing.T) *classification.Scheme {
	t.Helper()
	s := classification.NewScheme("msc", classification.DefaultBaseWeight)
	for _, c := range [][3]string{
		{"05-XX", "Combinatorics", ""},
		{"05Cxx", "Graph theory", "05-XX"},
		{"05C10", "Planar graphs", "05Cxx"},
		{"20-XX", "Group theory", ""},
		{"20Axx", "Foundations", "20-XX"},
	} {
		if err := s.AddClass(c[0], c[1], c[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

func viewEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Scheme == nil {
		cfg.Scheme = viewScheme(t)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{
		Name: "d1", URLTemplate: "http://d1/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLinkTextConcurrentWithDomainAndPolicyWrites drives the lock-free link
// path while domains are re-registered (copy-on-write table) and policies
// are rewritten (entry copy-replace); under -race this proves the view
// capture never reads engine state that a writer is mutating.
func TestLinkTextConcurrentWithDomainAndPolicyWrites(t *testing.T) {
	e := viewEngine(t, Config{})
	var ids []int64
	for i := 0; i < 8; i++ {
		id, err := e.AddEntry(&corpus.Entry{
			Domain:  "d1",
			Title:   fmt.Sprintf("planar graph %d", i),
			Classes: []string{"05C10"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			// Re-register the domain with shifting priority (exercises the
			// COW domain table under live readers).
			if err := e.AddDomain(corpus.Domain{
				Name: "d1", URLTemplate: "http://d1/{id}", Scheme: "msc",
				Priority: 1 + i%3,
			}); err != nil {
				t.Errorf("AddDomain: %v", err)
				return
			}
			// Rewrite a policy (exercises entry copy-replace).
			if err := e.SetPolicy(ids[i%len(ids)], "permit 05Cxx"); err != nil {
				t.Errorf("SetPolicy: %v", err)
				return
			}
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				res, err := e.LinkText("a planar graph 3 appears here",
					LinkOptions{SourceClasses: []string{"05C10"}})
				if err != nil {
					t.Errorf("LinkText: %v", err)
					return
				}
				for _, l := range res.Links {
					if l.TargetDomain != "d1" || l.URL == "" {
						t.Errorf("bad link %+v", l)
						return
					}
				}
			}
		}()
	}
	// Let the linkers finish, then stop the writer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < 5; i++ {
		if _, _, err := e.LinkEntryCached(ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-done
}

// TestSteerInPlaceMatchesAlgorithm1 holds the resolve stage's in-place
// steering to classification.Steer, Algorithm 1 as the paper states it: for
// random source classes and candidate sets — unknown classes, unclassified
// candidates and an empty source included — the same candidates survive, in
// the order they arrived, at the same distance.
func TestSteerInPlaceMatchesAlgorithm1(t *testing.T) {
	e := viewEngine(t, Config{Scheme: classification.MSC2000(classification.DefaultBaseWeight)})
	classes := e.scheme.Classes()
	rng := rand.New(rand.NewSource(7))
	pick := func() []string {
		out := make([]string, 0, 3)
		for n := rng.Intn(4); len(out) < n; {
			if rng.Intn(8) == 0 {
				out = append(out, "no-such-class")
				continue
			}
			out = append(out, classes[rng.Intn(len(classes))])
		}
		return out
	}
	run := e.getRun()
	defer putRun(run)
	run.view = linkView{domains: e.domainMap()}
	for i := 0; i < 500; i++ {
		run.plan.classes = pick()
		cands := make([]*corpus.Entry, 1+rng.Intn(12))
		ref := make([]classification.Candidate, len(cands))
		for j := range cands {
			cands[j] = &corpus.Entry{ID: int64(len(cands) - j), Domain: "d1", Classes: pick()}
			ref[j] = classification.Candidate{Object: cands[j].ID, Classes: cands[j].Classes}
		}
		want := classification.Steer(e.scheme, run.plan.classes, ref)
		got, distance := run.steer(cands)
		if len(got) != len(want) || distance != want[0].Distance {
			t.Fatalf("case %d: %d candidates at %d, Steer keeps %d at %d", i, len(got), distance, len(want), want[0].Distance)
		}
		// Steer orders by ID; the candidates arrived in descending ID order.
		for j, c := range got {
			if w := want[len(want)-1-j]; c.ID != w.Object {
				t.Fatalf("case %d: kept %d where Steer keeps %d", i, c.ID, w.Object)
			}
		}
	}
}
