package httpapi

import (
	"log"
	"net/http"
	"runtime/debug"

	"nnexus/internal/clock"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

// protect wraps an /api route, the twin of wire method method: it takes the
// node's in-flight slot for the request before its body is read, so a body
// still arriving holds one, and gives it back when the handler returns, panic
// or not. With every slot taken it answers 503 + Retry-After, counted in
// nnexus_requests_shed_total{layer="http"}, the family the socket server
// counts its own into under layer "tcp".
func (h *Handler) protect(method string, next http.HandlerFunc) http.HandlerFunc {
	next = h.recovered(next)
	return func(w http.ResponseWriter, r *http.Request) {
		if err := h.svc.Enter(method); err != nil {
			h.shed.Inc()
			h.fail(w, err, http.StatusServiceUnavailable, nil)
			return
		}
		defer h.svc.Leave(method)
		next(w, r)
	}
}

// recovered wraps a route with panic recovery: a poisoned request answers
// 500 and bumps nnexus_panics_recovered_total{layer="http"} instead of
// killing the process.
func (h *Handler) recovered(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			h.panics.Inc()
			log.Printf("httpapi: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			// Best effort: if the handler already wrote a status, the conn
			// is in an unknown state and this write is ignored by net/http.
			writeJSON(w, http.StatusInternalServerError, map[string]string{
				"error": "internal server error", "code": wire.CodeInternal})
		}()
		next(w, r)
	}
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
