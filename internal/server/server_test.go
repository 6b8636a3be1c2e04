package server

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/service"
	"nnexus/internal/storage"
	"nnexus/internal/wire"
)

// startServer boots an engine with the Fig-1 fixture and serves it on a
// random port, returning a connected client.
func startServer(t *testing.T) (*Server, *client.Client) {
	t.Helper()
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(service.New(engine), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func seedFig1(t *testing.T, c *client.Client) map[string]int64 {
	t.Helper()
	if err := c.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]int64)
	add := func(e *corpus.Entry) {
		e.Domain = "planetmath.org"
		id, err := c.AddEntry(e)
		if err != nil {
			t.Fatalf("AddEntry(%s): %v", e.Title, err)
		}
		ids[e.Title+"/"+strings.Join(e.Classes, ",")] = id
	}
	add(&corpus.Entry{Title: "planar graph", Classes: []string{"05C10"}})
	add(&corpus.Entry{Title: "graph", Classes: []string{"05C99"}})
	add(&corpus.Entry{Title: "graph", Classes: []string{"03E20"}})
	add(&corpus.Entry{Title: "even number", Concepts: []string{"even"}, Classes: []string{"11A51"}})
	return ids
}

func TestPingAndStats(t *testing.T) {
	_, c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	seedFig1(t, c)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 4 || stats.Domains != 1 || stats.Concepts != 4 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestLinkTextOverSocket(t *testing.T) {
	_, c := startServer(t)
	ids := seedFig1(t, c)
	res, err := c.LinkText("a planar graph is a graph", []string{"05C40"}, "msc", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 2 {
		t.Fatalf("links = %+v", res.Links)
	}
	if res.Links[1].Target != ids["graph/05C99"] {
		t.Errorf("steering over socket failed: %+v", res.Links[1])
	}
	if !strings.Contains(res.Output, `<a href="http://pm/`) {
		t.Errorf("output = %q", res.Output)
	}
}

func TestLinkTextModesAndFormats(t *testing.T) {
	_, c := startServer(t)
	ids := seedFig1(t, c)
	// Steered toward set theory.
	res, err := c.LinkText("the graph", []string{"03E20"}, "msc", "steered", "markdown")
	if err != nil {
		t.Fatal(err)
	}
	if res.Links[0].Target != ids["graph/03E20"] {
		t.Errorf("steered link = %+v", res.Links[0])
	}
	if !strings.HasPrefix(res.Output, "the [graph](") {
		t.Errorf("markdown output = %q", res.Output)
	}
	// Bad mode is rejected server-side.
	if _, err := c.LinkText("x", nil, "", "psychic", ""); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := c.LinkText("x", nil, "", "", "pdf"); err == nil {
		t.Error("bad format accepted")
	}
}

func TestEntryLifecycleOverSocket(t *testing.T) {
	_, c := startServer(t)
	seedFig1(t, c)
	entry := &corpus.Entry{
		Domain: "planetmath.org", Title: "tree",
		Classes: []string{"05Cxx"}, Body: "a tree is a graph",
	}
	id, err := c.AddEntry(entry)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GetEntry(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "tree" || got.Body != "a tree is a graph" {
		t.Errorf("entry = %+v", got)
	}
	got.Body = "a tree is a connected graph"
	if err := c.UpdateEntry(got); err != nil {
		t.Fatal(err)
	}
	linked, err := c.LinkEntry(id, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(linked.Links) == 0 {
		t.Errorf("linked = %+v", linked)
	}
	if err := c.RemoveEntry(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetEntry(id); err == nil {
		t.Error("removed entry still present")
	}
}

func TestPolicyOverSocket(t *testing.T) {
	_, c := startServer(t)
	ids := seedFig1(t, c)
	if err := c.SetPolicy(ids["even number/11A51"], "forbid even\nallow even from 11-XX"); err != nil {
		t.Fatal(err)
	}
	res, err := c.LinkText("even so", []string{"05C40"}, "msc", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 0 {
		t.Errorf("policy ignored over socket: %+v", res.Links)
	}
	if len(res.Skips) == 0 || res.Skips[0].Reason != "policy" {
		t.Errorf("skips = %+v", res.Skips)
	}
}

func TestInvalidationAndRelinkOverSocket(t *testing.T) {
	_, c := startServer(t)
	seedFig1(t, c)
	id, err := c.AddEntry(&corpus.Entry{
		Domain: "planetmath.org", Title: "forest",
		Body: "a forest mentions a hypergraph",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddEntry(&corpus.Entry{
		Domain: "planetmath.org", Title: "hypergraph", Classes: []string{"05Cxx"},
	}); err != nil {
		t.Fatal(err)
	}
	inv, err := c.Invalidated()
	if err != nil {
		t.Fatal(err)
	}
	if len(inv) != 1 || inv[0] != id {
		t.Fatalf("invalidated = %v, want [%d]", inv, id)
	}
	n, err := c.Relink()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("relinked = %d", n)
	}
	inv, _ = c.Invalidated()
	if len(inv) != 0 {
		t.Errorf("still invalidated: %v", inv)
	}
}

func TestServerErrors(t *testing.T) {
	srv, c := startServer(t)
	// Unknown method via raw handle.
	resp := srv.Handle(&wire.Request{Method: "nonsense"})
	if resp.IsOK() {
		t.Error("unknown method accepted")
	}
	// Entry into unregistered domain.
	if _, err := c.AddEntry(&corpus.Entry{Domain: "ghost", Title: "x"}); err == nil {
		t.Error("unknown domain accepted")
	}
	// Missing payloads.
	if resp := srv.Handle(&wire.Request{Method: wire.MethodAddEntry}); resp.IsOK() {
		t.Error("addEntry without entry accepted")
	}
	if resp := srv.Handle(&wire.Request{Method: wire.MethodAddDomain}); resp.IsOK() {
		t.Error("addDomain without domain accepted")
	}
	if resp := srv.Handle(&wire.Request{Method: wire.MethodGetEntry, Object: 12345}); resp.IsOK() {
		t.Error("getEntry of unknown accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, c := startServer(t)
	seedFig1(t, c)
	addr := srv.listener.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := client.Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cc.Close()
			for i := 0; i < 25; i++ {
				if _, err := cc.LinkText("a planar graph", []string{"05C10"}, "msc", "", ""); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCloseIsIdempotentAndStopsServing(t *testing.T) {
	srv, c := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after server close")
	}
}

func TestMaxRequestBytes(t *testing.T) {
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(service.New(engine), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A small request fits.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// A request past service.MaxRequestBytes gets the connection dropped.
	huge := strings.Repeat("x", service.MaxRequestBytes)
	if _, err := c.LinkText(huge, nil, "", "", ""); err == nil {
		t.Error("oversized request accepted")
	}
	// Fresh connections still work (limit is per connection, not global).
	c2, err := client.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkServerLinkTextOverSocket(b *testing.B) {
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(service.New(engine), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		b.Fatal(err)
	}
	for _, title := range []string{"planar graph", "connected graph", "plane"} {
		if _, err := c.AddEntry(&corpus.Entry{
			Domain: "planetmath.org", Title: title, Classes: []string{"05C10"},
		}); err != nil {
			b.Fatal(err)
		}
	}
	text := "a planar graph is a connected graph drawn in the plane"
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LinkText(text, []string{"05C10"}, "msc", "", ""); err != nil {
			b.Fatal(err)
		}
	}
}

// An engine stopped by a refused write answers every request on the socket
// with one code, "failed", which the client does not retry; ping, which is
// control traffic, still answers.
func TestStoppedEngineOverTheSocket(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(service.New(engine), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.AddDomain(corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}"}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	_, addErr := c.AddEntry(&corpus.Entry{Domain: "planetmath.org", Title: "refused"}) // stops the engine
	_, getErr := c.GetEntry(1)
	_, linkErr := c.LinkText("a planar graph", nil, "", "", "")
	for name, err := range map[string]error{"addEntry": addErr, "getEntry": getErr, "linkText": linkErr} {
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeFailed {
			t.Errorf("%s on a stopped engine: %v, want code %q", name, err, wire.CodeFailed)
		}
	}
	if c.Retries() != 0 {
		t.Errorf("the client retried %d calls answered %q", c.Retries(), wire.CodeFailed)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("ping on a stopped engine: %v", err)
	}
}
