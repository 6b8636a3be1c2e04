package httpapi

import (
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"

	"nnexus/internal/clock"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

// resilience guards API routes: an optional in-flight bound shed with
// 503 + Retry-After, and panic recovery that converts a poisoned request
// into a 500 and a counter bump instead of a dead process. The shed and
// panic counter families are shared with the TCP server (same names,
// "layer" label), so one dashboard covers both serving layers.
type resilience struct {
	maxInFlight int64 // 0 disables shedding
	active      atomic.Int64
	shed        *telemetry.Counter // nnexus_requests_shed_total{layer="http"}
	panics      *telemetry.Counter // nnexus_panics_recovered_total{layer="http"}
}

func newResilience(reg *telemetry.Registry, maxInFlight int64) *resilience {
	return &resilience{
		maxInFlight: maxInFlight,
		shed: reg.CounterVec("nnexus_requests_shed_total",
			"Requests rejected by load shedding, by serving layer.", "layer").With("http"),
		panics: reg.CounterVec("nnexus_panics_recovered_total",
			"Handler panics recovered into error responses, by serving layer.", "layer").With("http"),
	}
}

// protect wraps an API route with shedding and panic recovery.
func (rs *resilience) protect(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rs.maxInFlight > 0 {
			if rs.active.Add(1) > rs.maxInFlight {
				rs.active.Add(-1)
				rs.shed.Inc()
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{
					"error": "server overloaded, retry later", "code": wire.CodeOverloaded})
				return
			}
			defer rs.active.Add(-1)
		}
		rs.serveRecovered(next, w, r)
	}
}

// recoverOnly wraps a probe route: panic recovery without shedding.
func (rs *resilience) recoverOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rs.serveRecovered(next, w, r)
	}
}

func (rs *resilience) serveRecovered(next http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		rs.panics.Inc()
		log.Printf("httpapi: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
		// Best effort: if the handler already wrote a status, the conn is
		// in an unknown state and this write is ignored by net/http.
		writeJSON(w, http.StatusInternalServerError, map[string]string{
			"error": "internal server error", "code": wire.CodeInternal})
	}()
	next(w, r)
}

// httpMetrics instruments the API's request handling: per-endpoint request
// counts broken down by status class, per-endpoint latency histograms, and
// an in-flight gauge. Children are resolved once per route at mux setup, so
// the per-request path performs no labeled lookups and no allocations
// beyond the ResponseWriter wrapper.
type httpMetrics struct {
	inFlight  *telemetry.Gauge
	requests  *telemetry.CounterVec
	durations *telemetry.HistogramVec
}

func newHTTPMetrics(reg *telemetry.Registry) *httpMetrics {
	return &httpMetrics{
		inFlight: reg.Gauge("nnexus_http_in_flight_requests",
			"HTTP API requests currently being served."),
		requests: reg.CounterVec("nnexus_http_requests_total",
			"HTTP API requests by endpoint and status class.", "endpoint", "code"),
		durations: reg.HistogramVec("nnexus_http_request_duration_seconds",
			"HTTP API request latency by endpoint.", nil, "endpoint"),
	}
}

// endpointMetrics are one route's pre-resolved children.
type endpointMetrics struct {
	duration *telemetry.Histogram
	// byClass indexes status/100 (so byClass[2] counts 2xx). Index 0
	// collects anything outside 100–599.
	byClass [6]*telemetry.Counter
}

// endpoint resolves one route's children. The endpoint label is the route
// pattern (e.g. "/api/entries/{id}"), not the concrete path, so label
// cardinality stays bounded no matter what IDs clients request.
func (m *httpMetrics) endpoint(pattern string) *endpointMetrics {
	em := &endpointMetrics{duration: m.durations.With(pattern)}
	classes := [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}
	for i, c := range classes {
		em.byClass[i] = m.requests.With(pattern, c)
	}
	return em
}

// instrument wraps one route's handler with accounting. The accounting is
// deferred so it survives a handler panic (the resilience wrapper recovers
// outside this layer); a panic before any write is counted as "other".
func (m *httpMetrics) instrument(pattern string, next http.HandlerFunc) http.HandlerFunc {
	em := m.endpoint(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Inc()
		start := clock.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			m.inFlight.Dec()
			em.duration.Observe(clock.Now().Sub(start).Seconds())
			class := sw.status / 100
			if class < 1 || class > 5 {
				class = 0
			}
			em.byClass[class].Inc()
		}()
		next(sw, r)
	}
}

// statusWriter captures the status code a handler writes; a handler that
// writes the body without an explicit WriteHeader implies 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}
