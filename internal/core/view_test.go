package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
	"nnexus/internal/ontomap"
	"nnexus/internal/storage"
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
	for i := 0; i < 500; i++ {
		run.plan.classes = pick()
		run.plan.classIdx = e.scheme.AppendIndexes(nil, run.plan.classes)
		cands := make([]*storedEntry, 1+rng.Intn(12))
		ref := make([]classification.Candidate, len(cands))
		for j := range cands {
			c, err := e.newStored(&corpus.Entry{ID: int64(len(cands) - j), Domain: "d1", Classes: pick()})
			if err != nil {
				t.Fatal(err)
			}
			cands[j] = c
			ref[j] = classification.Candidate{Object: c.ID, Classes: c.Classes}
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

// TestResolveStateFollowsDomainAndMapper: an entry's resolve state (class
// translation, domain, URL) is derived when it is written, so an entry
// written before AddDomain changes its domain's scheme or URL template, or
// before RegisterMapper installs the mapper of its scheme, must link exactly
// as the same entry written after them.
func TestResolveStateFollowsDomainAndMapper(t *testing.T) {
	lcc := ontomap.NewMapper("lcc", "msc")
	lcc.Add("QA166", "05Cxx")
	lcc.Add("QA17*", "20Axx")
	retemplate := func(e *Engine) error {
		return e.AddDomain(corpus.Domain{Name: "d1", URLTemplate: "http://new/{title}", Scheme: "msc", Priority: 1})
	}
	rescheme := func(e *Engine) error {
		return e.AddDomain(corpus.Domain{Name: "d1", URLTemplate: "http://new/{title}", Scheme: "lcc", Priority: 1})
	}
	register := func(e *Engine) error { return e.RegisterMapper(lcc) }
	for _, tc := range []struct {
		name string
		// steps change d1's resolve state; from is the class entry 1 then
		// steers by, in the canonical scheme.
		steps []func(*Engine) error
		from  string
	}{
		{"template", []func(*Engine) error{retemplate}, "05-XX"},
		{"scheme then mapper", []func(*Engine) error{rescheme, register}, "05Cxx"},
		{"mapper then scheme", []func(*Engine) error{register, rescheme}, "05Cxx"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(entriesFirst bool) *Engine {
				e := viewEngine(t, Config{})
				if err := e.AddDomain(corpus.Domain{Name: "d2", URLTemplate: "http://d2/{id}", Scheme: "msc", Priority: 1}); err != nil {
					t.Fatal(err)
				}
				steps := func() {
					for _, step := range tc.steps {
						if err := step(e); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !entriesFirst {
					steps()
				}
				for _, entry := range []*corpus.Entry{
					{Domain: "d1", Title: "planar graph", Classes: []string{"QA166", "05-XX"}},
					{Domain: "d2", Title: "planar graph", Classes: []string{"20-XX"}},
				} {
					if _, err := e.AddEntry(entry); err != nil {
						t.Fatal(err)
					}
				}
				if entriesFirst {
					steps()
				}
				return e
			}
			link := func(e *Engine) Link {
				res, err := e.LinkText("a planar graph", LinkOptions{SourceClasses: []string{"05C10"}})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Links) != 1 {
					t.Fatalf("links = %+v, skips = %+v", res.Links, res.Skips)
				}
				return res.Links[0]
			}
			e := build(false)
			before, after := link(build(true)), link(e)
			if before != after {
				t.Errorf("entries written before the change link to\n%+v\nentries written after it to\n%+v", before, after)
			}
			want, _ := e.Scheme().Distance("05C10", tc.from)
			if after.Target != 1 || after.URL != "http://new/planar+graph" || after.Distance != want {
				t.Errorf("link %+v does not show the change: want entry 1 at distance %d", after, want)
			}
		})
	}

	// A domain a replicated record drops leaves its entries without one.
	e := viewEngine(t, Config{})
	if _, err := e.AddEntry(&corpus.Entry{Domain: "d1", Title: "planar graph", Classes: []string{"05C10"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyReplicated([]storage.BatchOp{{Table: tableDomains, Key: "d1", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.LinkText("a planar graph", LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 0 || len(res.Skips) != 1 || res.Skips[0].Reason != SkipNoDomain {
		t.Errorf("after the domain was dropped: links %+v, skips %+v", res.Links, res.Skips)
	}
}
