package httpapi

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsEndpoint scrapes /metrics after driving traffic through the
// API and asserts the exposition carries the families the acceptance
// criteria name: per-endpoint request histograms, pipeline stage
// histograms, cache hit/miss counters, and the invalidation-queue depth
// gauge.
func TestMetricsEndpoint(t *testing.T) {
	engine, srv := testServer(t)

	// Drive the serving path: a link, a cached entry render twice (miss
	// then hit), and a 404.
	resp := postJSON(t, srv.URL+"/api/link", map[string]interface{}{
		"text": "a planar graph is a graph",
	})
	resp.Body.Close()
	for i := 0; i < 2; i++ {
		r, err := http.Get(srv.URL + "/api/entries/1/linked")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	r404, err := http.Get(srv.URL + "/api/entries/999")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	for _, want := range []string{
		// Engine families.
		"# TYPE nnexus_engine_operations_total counter",
		`nnexus_engine_operations_total{op="add_entry"} 4`,
		"# TYPE nnexus_pipeline_stage_duration_seconds histogram",
		`nnexus_pipeline_stage_duration_seconds_bucket{stage="tokenize",le="+Inf"}`,
		`nnexus_pipeline_stage_duration_seconds_count{stage="render"}`,
		"# TYPE nnexus_link_duration_seconds histogram",
		"# TYPE nnexus_rendered_cache_hits_total counter",
		"nnexus_rendered_cache_hits_total 1",
		"nnexus_rendered_cache_misses_total 1",
		"# TYPE nnexus_invalidation_queue_depth gauge",
		"nnexus_entries 4",
		// HTTP families.
		"# TYPE nnexus_http_requests_total counter",
		`nnexus_http_requests_total{endpoint="/api/link",code="2xx"} 1`,
		`nnexus_http_requests_total{endpoint="/api/entries/{id}",code="4xx"} 1`,
		`nnexus_http_request_duration_seconds_count{endpoint="/api/entries/{id}/linked"} 2`,
		"# TYPE nnexus_http_in_flight_requests gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
	_ = engine
}

// TestStatsCarriesTelemetry asserts the /api/stats JSON round-trips the
// telemetry snapshot next to the pre-existing quality metrics.
func TestStatsCarriesTelemetry(t *testing.T) {
	_, srv := testServer(t)
	resp := postJSON(t, srv.URL+"/api/link", map[string]interface{}{
		"text": "a planar graph",
	})
	resp.Body.Close()

	r, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Entries   int                    `json:"entries"`
		CacheHits int64                  `json:"cacheHits"`
		Telemetry map[string]interface{} `json:"telemetry"`
	}
	decode(t, r, &stats)
	if stats.Entries != 4 {
		t.Fatalf("entries = %d, want 4", stats.Entries)
	}
	if stats.Telemetry == nil {
		t.Fatal("stats response has no telemetry snapshot")
	}
	ops, ok := stats.Telemetry["nnexus_engine_operations_total"].(map[string]interface{})
	if !ok {
		t.Fatalf("snapshot missing engine operations: %v", stats.Telemetry)
	}
	if got := ops["op=link_text"].(float64); got != 1 {
		t.Fatalf("op=link_text = %v, want 1", got)
	}
	link, ok := stats.Telemetry["nnexus_link_duration_seconds"].(map[string]interface{})
	if !ok {
		t.Fatalf("snapshot missing link duration histogram: %v", stats.Telemetry)
	}
	if got := link["count"].(float64); got != 1 {
		t.Fatalf("link duration count = %v, want 1", got)
	}
	for _, q := range []string{"p50", "p90", "p99"} {
		if _, ok := link[q]; !ok {
			t.Fatalf("link duration summary missing %s: %v", q, link)
		}
	}
	// The /api/stats scrape itself is instrumented; a second scrape must
	// see the first.
	r2, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats2 struct {
		Telemetry map[string]interface{} `json:"telemetry"`
	}
	decode(t, r2, &stats2)
	reqs := stats2.Telemetry["nnexus_http_requests_total"].(map[string]interface{})
	if got := reqs["code=2xx,endpoint=/api/stats"].(float64); got < 1 {
		t.Fatalf("stats endpoint count = %v, want ≥ 1", got)
	}
}
