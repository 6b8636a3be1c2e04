package nnexus_test

// Facade-level resilience: the public Serve/Dial/HTTPHandler surface under
// drain and overload, exercised exactly as an embedding application would
// use it.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus"
)

func resilienceEngine(t *testing.T, cfg nnexus.Config) *nnexus.Engine {
	t.Helper()
	cfg.Scheme = nnexus.SampleMSC(10)
	engine, err := nnexus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	if err := engine.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
	}); err != nil {
		t.Fatal(err)
	}
	return engine
}

// TestChaosFacadeDrainAndRestart walks the public surface through a rolling
// restart: flip readiness, drain the TCP server gracefully under live
// traffic, bring a replacement up on the same address, flip readiness back.
// The self-healing client rides through with zero failed calls — only
// retries and reconnects.
func TestChaosFacadeDrainAndRestart(t *testing.T) {
	engine := resilienceEngine(t, nnexus.Config{RequestTimeout: 2 * time.Second})
	srv, addr, err := engine.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	healthState := engine.Health()
	web := httptest.NewServer(engine.HTTPHandler())
	defer web.Close()

	readyz := func() int {
		resp, err := http.Get(web.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", code)
	}

	c, err := nnexus.Dial(addr,
		nnexus.WithMaxRetries(10),
		nnexus.WithBackoff(5*time.Millisecond, 200*time.Millisecond),
		nnexus.WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var calls, failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.LinkText("every planar graph is planar", nil, "", "", ""); err != nil {
				t.Logf("link call failed: %v", err)
				failures.Add(1)
			}
			calls.Add(1)
		}
	}()
	time.Sleep(30 * time.Millisecond)

	// Drain: flip readiness first (as a deployment would), then shut down
	// while traffic keeps arriving.
	healthState.SetDraining(true)
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Replacement instance on the same address (retry the bind until the
	// kernel releases it).
	var srv2 *nnexus.Server
	for attempt := 0; ; attempt++ {
		srv2, _, err = engine.Serve(addr, nil)
		if err == nil {
			break
		}
		if attempt > 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer srv2.Close()
	healthState.SetDraining(false)
	if code := readyz(); code != http.StatusOK {
		t.Errorf("readyz after restart = %d, want 200", code)
	}

	time.Sleep(50 * time.Millisecond) // traffic against the replacement
	close(stop)
	wg.Wait()

	if calls.Load() == 0 {
		t.Fatal("no calls made")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d of %d calls failed across the rolling restart (retries=%d reconnects=%d)",
			failures.Load(), calls.Load(), c.Retries(), c.Reconnects())
	}
	if c.Reconnects() == 0 {
		t.Error("client never reconnected; the drain path was not exercised")
	}
}

// TestChaosFacadeHTTPSheddingVisible exercises Config.MaxActive through the
// facade: a request whose body never arrives holds the only slot, the next
// request is shed with 503, and the shared shed counter surfaces in
// WriteMetrics.
func TestChaosFacadeHTTPSheddingVisible(t *testing.T) {
	engine := resilienceEngine(t, nnexus.Config{MaxActive: 1})
	web := httptest.NewServer(engine.HTTPHandler())
	defer web.Close()

	pr, pw := io.Pipe()
	// Runs before web.Close, which waits for the held request: a failed
	// assertion must fail the test, not hang it.
	defer pw.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("POST", web.URL+"/api/link", pr)
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	// The held request must own the slot before anything competes for it: a
	// probe arriving first would take the slot and get the held request shed.
	waitFor(t, "the held request to be in flight", func() bool {
		var sb strings.Builder
		return engine.WriteMetrics(&sb) == nil &&
			strings.Contains(sb.String(), "nnexus_http_in_flight_requests 1\n")
	})

	// Until the slot frees, every further request is shed.
	shed := 0
	deadline := time.Now().Add(2 * time.Second)
	for shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("saturated handler never shed")
		}
		resp, err := http.Post(web.URL+"/api/link", "application/json",
			strings.NewReader(`{"text":"a planar graph"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			shed++
		}
	}
	pw.Close()
	<-done

	var sb strings.Builder
	if err := engine.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `nnexus_requests_shed_total{layer="http"}`) {
		t.Error("shed counter missing from facade metrics exposition")
	}
	// The API recovered once the slot freed.
	resp, err := http.Post(web.URL+"/api/link", "application/json",
		strings.NewReader(`{"text":"a planar graph"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("link after slot freed = %d, want 200", resp.StatusCode)
	}
}
