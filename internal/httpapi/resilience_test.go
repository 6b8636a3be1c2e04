package httpapi

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/health"
	"nnexus/internal/server"
	"nnexus/internal/service"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

func TestHealthProbes(t *testing.T) {
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	st := health.NewState()
	srv := httptest.NewServer(New(service.New(engine), st))
	defer srv.Close()

	probe := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}

	// Live from the start; not ready until the state says so.
	if code, _ := probe("/healthz"); code != http.StatusOK {
		t.Errorf("healthz before ready = %d, want 200", code)
	}
	if code, body := probe("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not ready") {
		t.Errorf("readyz before ready = %d %q, want 503 not ready", code, body)
	}

	st.SetReady(true)
	if code, body := probe("/readyz"); code != http.StatusOK || !strings.Contains(body, `"status":"ready"`) {
		t.Errorf("readyz when ready = %d %q, want 200 with ready JSON report", code, body)
	}

	// Draining: still live, no longer ready.
	st.SetDraining(true)
	if code, _ := probe("/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", code)
	}
	if code, body := probe("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("readyz while draining = %d %q, want 503 draining", code, body)
	}

	// A failing named check (e.g. storage) flips readiness too.
	st.SetDraining(false)
	broken := errors.New("wal closed")
	st.AddCheck("storage", func() error { return broken })
	if code, body := probe("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "storage") {
		t.Errorf("readyz with failing check = %d %q, want 503 naming the check", code, body)
	}
}

// Without a health state the probes default to healthy so a bare handler still
// works behind standard orchestration.
func TestHealthProbesDefaultReady(t *testing.T) {
	_, srv := testServer(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s without health state = %d, want 200", path, resp.StatusCode)
		}
	}
}

// boundedHandler is a handler in front of a node that runs at most
// maxActive requests at once.
func boundedHandler(t *testing.T, engine *core.Engine, maxActive int) *Handler {
	t.Helper()
	svc := service.New(engine)
	svc.MaxActive = maxActive
	return New(svc, nil)
}

// TestHTTPLoadShedding saturates a node bounded at one request in flight
// with a request whose body never arrives, then verifies the next request is
// shed with 503 + Retry-After while probes, /metrics and the form keep
// answering, and that the slot frees.
func TestHTTPLoadShedding(t *testing.T) {
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	h := boundedHandler(t, engine, 1)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Occupy the only slot: /api/link blocks reading a body that never comes.
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("POST", srv.URL+"/api/link", pr)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	inFlight := engine.Telemetry().Gauge("nnexus_http_in_flight_requests", "")
	for inFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocking request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var shed struct{ Error, Code string }
	json.NewDecoder(resp.Body).Decode(&shed)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request over in-flight bound = %d, want 503", resp.StatusCode)
	}
	if shed.Code != wire.CodeOverloaded || shed.Error == "" {
		t.Errorf("shed body = %+v, want an error typed %q, as the socket answers", shed, wire.CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	if got := h.shed.Value(); got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}

	// Probes, the scrape and the form take no slot.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s while saturated = %d, want 200", path, resp.StatusCode)
		}
	}

	// Release the slot (the handler sees EOF and answers 400); the API
	// accepts work again.
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("blocked request errored at transport level: %v", err)
	}
	resp, err = http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats after slot freed = %d, want 200", resp.StatusCode)
	}
}

// TestHTTPPanicRecovered runs a panicking handler through the full
// middleware chain of a node bounded at one request in flight: the response
// is a 500, the panic counter bumps, and neither the in-flight gauge nor the
// node's one slot leaks.
func TestHTTPPanicRecovered(t *testing.T) {
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	h := boundedHandler(t, engine, 1)
	m := newHTTPMetrics(engine.Telemetry())
	wrapped := h.protect(wire.MethodLinkText, m.instrument("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("poisoned request")
	}))

	rec := httptest.NewRecorder()
	wrapped(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler answered %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"code":"`+wire.CodeInternal+`"`) {
		t.Errorf("panic answer %s is not typed %q", body, wire.CodeInternal)
	}
	if got := h.panics.Value(); got != 1 {
		t.Errorf("panics counter = %v, want 1", got)
	}
	if got := m.inFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge leaked: %v, want 0", got)
	}

	// The slot came back: the node's only one serves the next request.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/stats", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("request after a recovered panic answered %d, want 200: the panic kept its slot", rec.Code)
	}
}

// TestShedFamilySharedAcrossLayers proves the TCP server and the HTTP
// handler report into the same telemetry families, distinguished only by the
// "layer" label, so one dashboard covers both.
func TestShedFamilySharedAcrossLayers(t *testing.T) {
	engine, err := core.NewEngine(core.Config{
		Scheme: classification.SampleMSC(10), Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(engine)
	_ = server.New(svc, nil)
	_ = New(svc, nil)

	var sb strings.Builder
	if err := engine.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, series := range []string{
		`nnexus_requests_shed_total{layer="http"}`,
		`nnexus_requests_shed_total{layer="tcp"}`,
		`nnexus_panics_recovered_total{layer="http"}`,
		`nnexus_panics_recovered_total{layer="tcp"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	if n := strings.Count(text, "# TYPE nnexus_requests_shed_total"); n != 1 {
		t.Errorf("nnexus_requests_shed_total declared %d times, want one shared family", n)
	}
}

// TestChaosHTTPShedUnderLoadRecovers floods a bounded handler from many
// goroutines with naive retry-on-503 clients: every request eventually
// succeeds and at least one was shed along the way.
func TestChaosHTTPShedUnderLoadRecovers(t *testing.T) {
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.AddEntry(&corpus.Entry{
		Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
	}); err != nil {
		t.Fatal(err)
	}
	h := boundedHandler(t, engine, 2)
	srv := httptest.NewServer(h)
	defer srv.Close()

	var failures atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				ok := false
				for attempt := 0; attempt < 50; attempt++ {
					resp, err := http.Post(srv.URL+"/api/link", "application/json",
						strings.NewReader(`{"text":"a planar graph"}`))
					if err != nil {
						break
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						ok = true
						break
					}
					if resp.StatusCode != http.StatusServiceUnavailable {
						break // only shed responses are retryable here
					}
					time.Sleep(time.Duration(attempt+1) * time.Millisecond)
				}
				if !ok {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed under overload", failures.Load())
	}
	if h.shed.Value() == 0 {
		t.Skip("no request was shed; overload not reached on this machine")
	}
}
