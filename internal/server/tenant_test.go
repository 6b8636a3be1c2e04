package server

// Multi-tenancy over the wire: cross-corpus steering through the ontology
// mappers, the tenant gate's typed rateLimited / quotaExceeded rejections,
// and the noisy-neighbor chaos drill (`make chaos-tenant` runs every
// TestChaosTenant* under the race detector).

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/ontomap"
	"nnexus/internal/service"
	"nnexus/internal/tenant"
)

// crossCorpusScheme builds a canonical MSC scheme whose area roots match
// what the built-in Wikipedia-category mapper translates to ("05", "03").
func crossCorpusScheme(t *testing.T) *classification.Scheme {
	t.Helper()
	s := classification.NewScheme(ontomap.SchemeMSC, 10)
	must := func(id, name, parent string) {
		if err := s.AddClass(id, name, parent); err != nil {
			t.Fatal(err)
		}
	}
	must("03", "Mathematical logic", "")
	must("03E20", "Set theory", "03")
	must("05", "Combinatorics", "")
	must("05C10", "Topological graph theory", "05")
	must("05C99", "Graph theory misc", "05")
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return s
}

// startTenantServer boots an engine (optionally tenant-gated) and returns a
// no-retry client, so typed rejections surface instead of being retried.
func startTenantServer(t *testing.T, scheme *classification.Scheme, reg *tenant.Registry) (*core.Engine, *client.Client, string) {
	t.Helper()
	engine, err := core.NewEngine(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(engine)
	svc.Tenants = reg
	srv := New(svc, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, time.Second, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return engine, c, addr
}

// The ISSUE's acceptance scenario end to end over TCP: corpus A's
// (PlanetMath, MSC-classified) text is linked against corpus B's
// (Wikipedia, category-classified) concept map, and the homonym "graph"
// resolves by ontology-mapped steering — the Wikipedia candidate whose
// categories translate nearest to the source's MSC classes wins.
func TestCrossCorpusSteeringOverSocket(t *testing.T) {
	engine, c, _ := startTenantServer(t, crossCorpusScheme(t), nil)
	if err := engine.RegisterMapper(ontomap.NewWikipediaToMSC()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: ontomap.SchemeMSC, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDomain(corpus.Domain{
		Name: "en.wikipedia.org", URLTemplate: "http://wp/{title}", Scheme: ontomap.SchemeWikipediaCategory, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	add := func(cp, domain, title string, classes ...string) int64 {
		id, err := c.AddEntry(&corpus.Entry{
			Corpus: cp, Domain: domain, Title: title, Classes: classes,
		})
		if err != nil {
			t.Fatalf("AddEntry(%s/%s): %v", cp, title, err)
		}
		return id
	}
	pmPlanar := add("pm", "planetmath.org", "planar graph", "05C10")
	wikiGraphGT := add("wiki", "en.wikipedia.org", "graph", "Graph theory")
	wikiGraphSet := add("wiki", "en.wikipedia.org", "graph", "Set theory")

	res, err := c.LinkTextIn("pm", []string{"pm", "wiki"},
		"every planar graph is a graph", []string{"05C10"}, ontomap.SchemeMSC, "", "")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, l := range res.Links {
		got[l.Label] = l.Target
	}
	if got["planar graph"] != pmPlanar {
		t.Errorf("'planar graph' target = %d, want pm entry %d", got["planar graph"], pmPlanar)
	}
	if got["graph"] != wikiGraphGT {
		t.Errorf("'graph' target = %d, want ontology-steered wiki entry %d (not %d)",
			got["graph"], wikiGraphGT, wikiGraphSet)
	}

	// Self-linking pm sees no wiki concepts at all: "graph" must not link.
	res, err = c.LinkTextIn("pm", nil,
		"every planar graph is a graph", []string{"05C10"}, ontomap.SchemeMSC, "", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		if l.Label == "graph" {
			t.Errorf("self-linking pm leaked a wiki concept: %+v", l)
		}
	}
}

// The tenant gate's rate limiter: a corpus with an exhausted token bucket
// gets typed rateLimited rejections before execution; other corpora and the
// infrastructure methods (ping) are untouched.
func TestTenantRateLimitOverSocket(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{Corpora: map[string]*tenant.Policy{
		"hot": {RatePerSec: 0.001, Burst: 2},
	}})
	_, c, _ := startTenantServer(t, classification.SampleMSC(10), reg)
	if err := c.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Two tokens of burst admit two hot requests; the third is rejected.
	for i := 0; i < 2; i++ {
		if _, err := c.LinkTextIn("hot", nil, "some text", nil, "", "", ""); err != nil {
			t.Fatalf("hot request %d inside burst: %v", i, err)
		}
	}
	_, err := c.LinkTextIn("hot", nil, "some text", nil, "", "", "")
	if !client.IsRateLimited(err) {
		t.Fatalf("saturated hot request error = %v, want rateLimited", err)
	}

	// The bystander corpus and infrastructure traffic are unaffected.
	if _, err := c.LinkTextIn("calm", nil, "some text", nil, "", "", ""); err != nil {
		t.Fatalf("calm corpus caught the hot tenant's limit: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping must bypass the tenant gate: %v", err)
	}
}

// The tenant gate's quotas: entry-count and byte quotas reject writes with
// the typed quotaExceeded code before execution, updates are charged by
// size delta, and admitted state is never rolled back.
func TestTenantQuotaOverSocket(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{Corpora: map[string]*tenant.Policy{
		"boxed": {MaxEntries: 2},
	}})
	engine, c, _ := startTenantServer(t, classification.SampleMSC(10), reg)
	if err := c.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	entries := make([]*corpus.Entry, 3)
	for i := range entries {
		entries[i] = &corpus.Entry{
			Corpus: "boxed", Domain: "planetmath.org",
			Title: fmt.Sprintf("concept %d", i), Classes: []string{"05C10"},
		}
	}
	if _, err := c.AddEntry(entries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddEntry(entries[1]); err != nil {
		t.Fatal(err)
	}
	_, err := c.AddEntry(entries[2])
	if !client.IsQuotaExceeded(err) {
		t.Fatalf("third add error = %v, want quotaExceeded", err)
	}
	if n, _ := engine.CorpusUsage("boxed"); n != 2 {
		t.Fatalf("boxed usage = %d entries, want 2", n)
	}
	// Updating an existing entry adds no entry count and stays admitted.
	entries[0].Body = "updated body"
	if err := c.UpdateEntry(entries[0]); err != nil {
		t.Fatalf("update within quota: %v", err)
	}
	// An unboxed corpus is not affected by boxed's quota.
	free := &corpus.Entry{
		Corpus: "free", Domain: "planetmath.org", Title: "unbounded", Classes: []string{"05C10"},
	}
	if _, err := c.AddEntry(free); err != nil {
		t.Fatalf("unboxed corpus add: %v", err)
	}
	// Moving that entry into the full corpus is a new entry there, not a
	// replacement: it pays boxed's quota in full and is refused.
	free.Corpus = "boxed"
	if err := c.UpdateEntry(free); !client.IsQuotaExceeded(err) {
		t.Fatalf("move into a full corpus: error = %v, want quotaExceeded", err)
	}
	if n, _ := engine.CorpusUsage("boxed"); n != 2 {
		t.Fatalf("boxed usage after the refused move = %d entries, want 2", n)
	}
}

// percentile returns the p-th percentile of latency samples.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// TestChaosTenantNoisyNeighbor saturates one tenant's token bucket
// mid-traffic and proves the blast radius stays inside that tenant: the
// bystander corpus sees zero errors and its latency does not collapse, and
// every hot-tenant rejection is the typed rateLimited error (nothing
// generic, nothing executed).
func TestChaosTenantNoisyNeighbor(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{Corpora: map[string]*tenant.Policy{
		"hot": {RatePerSec: 25, Burst: 25},
	}})
	_, seedClient, addr := startTenantServer(t, classification.SampleMSC(10), reg)
	if err := seedClient.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for _, cp := range []string{"hot", "calm"} {
		for _, title := range []string{"planar graph", "connected graph"} {
			if _, err := seedClient.AddEntry(&corpus.Entry{
				Corpus: cp, Domain: "planetmath.org", Title: cp + " " + title, Classes: []string{"05C10"},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Quiet phase: the bystander's baseline latency, no hot traffic.
	calm, err := client.Dial(addr, time.Second, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer calm.Close()
	measureCalm := func(n int) []time.Duration {
		samples := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if _, err := calm.LinkTextIn("calm", nil,
				"the calm planar graph is calm connected graph", nil, "", "", ""); err != nil {
				t.Errorf("bystander request failed: %v", err)
			}
			samples = append(samples, time.Since(start))
		}
		return samples
	}
	quiet := measureCalm(150)

	// Storm phase: several hot-tenant workers hammer well past 25 req/s
	// while the bystander keeps measuring.
	var (
		hotOK, hotLimited atomic.Int64
		badErrs           sync.Map
		stop              = make(chan struct{})
		wg                sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc, err := client.Dial(addr, time.Second, client.WithMaxRetries(0))
			if err != nil {
				badErrs.Store(fmt.Sprintf("dial-%d", w), err)
				return
			}
			defer hc.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := hc.LinkTextIn("hot", nil, "hot planar graph traffic", nil, "", "", "")
				switch {
				case err == nil:
					hotOK.Add(1)
				case client.IsRateLimited(err):
					hotLimited.Add(1)
				default:
					badErrs.Store(err.Error(), err)
				}
			}
		}(w)
	}
	noisy := measureCalm(150)
	close(stop)
	wg.Wait()

	if n := hotLimited.Load(); n == 0 {
		t.Errorf("hot tenant was never rate limited (ok=%d) — the chaos never bit", hotOK.Load())
	}
	badErrs.Range(func(k, _ interface{}) bool {
		t.Errorf("hot tenant saw a non-rateLimited error: %s", k)
		return true
	})

	qp99, np99 := percentile(quiet, 0.99), percentile(noisy, 0.99)
	t.Logf("bystander p99: quiet=%s noisy=%s (hot ok=%d limited=%d)",
		qp99, np99, hotOK.Load(), hotLimited.Load())
	// The hot tenant's rejected flood must not collapse the bystander. The
	// bound is deliberately loose for CI noise; the tight ≤10% acceptance
	// bound is enforced by the nnexus-bench tenantiso experiment.
	if np99 > 10*qp99+50*time.Millisecond {
		t.Errorf("bystander p99 collapsed under the noisy neighbor: quiet=%s noisy=%s", qp99, np99)
	}
}
