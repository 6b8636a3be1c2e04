// Package httpapi exposes an NNexus engine as a web service (paper §3.4:
// "The modular design of NNexus will also allow developers to use NNexus as
// a web plugin for on-demand text linking ... NNexus could be deployed as a
// web service to allow third parties to link arbitrary documents to
// particular corpora").
//
// Endpoints (JSON unless noted):
//
//	GET  /                   interactive linking form (HTML)
//	POST /api/link           {"text", "classes", "scheme", "mode", "format"}
//	POST /api/entries        create an entry (returns its ID)
//	GET  /api/entries/{id}   fetch an entry
//	PUT  /api/entries/{id}   update an entry
//	DELETE /api/entries/{id} remove an entry
//	GET  /api/entries/{id}/linked   cached linked rendering of the entry
//	PUT  /api/entries/{id}/policy   install linking policy (text/plain body)
//	GET  /api/invalidated    IDs awaiting re-linking
//	POST /api/relink         re-link all invalidated entries
//	GET  /api/stats          collection statistics + telemetry snapshot
//	POST /api/import         OAI-style corpus dump (XML body; streamed)
//	GET  /metrics            Prometheus text-format telemetry (not JSON)
//	GET  /healthz            liveness probe (plain text; always 200 while up)
//	GET  /readyz             readiness probe (JSON per-component report; 503 while loading or draining)
//
// Every route is instrumented into the engine's telemetry registry:
// request counts by endpoint and status class, latency histograms per
// endpoint, and an in-flight gauge (see internal/telemetry).
//
// Resilience: API routes run behind panic recovery (a panicking handler
// answers 500 and bumps nnexus_panics_recovered_total{layer="http"} instead
// of killing the process) and, when WithMaxInFlight is set, load shedding
// (503 + Retry-After once the in-flight bound is hit, counted in
// nnexus_requests_shed_total{layer="http"}). Probe routes are never shed:
// an overloaded server is still live, and readiness must stay observable
// while draining.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/health"
	"nnexus/internal/render"
	"nnexus/internal/telemetry"
	"nnexus/internal/tenant"
)

// Handler serves the HTTP API for one engine.
type Handler struct {
	engine      *core.Engine
	mux         *http.ServeMux
	reg         *telemetry.Registry
	health      *health.State
	maxInFlight int64
	leader      func() string
	isPrimary   func() bool
	res         *resilience

	// tenants, when non-nil, applies the same per-corpus rate limits and
	// write quotas as the TCP layer: 429 + Retry-After for an exhausted
	// token bucket, 403 with code "quotaExceeded" for a quota violation —
	// both decided before the engine call executes.
	tenants        *tenant.Registry
	tenantRequests *telemetry.CounterVec
	tenantRejected *telemetry.CounterVec
}

// Option customises a Handler.
type Option func(*Handler)

// WithHealth wires a health state into the /healthz and /readyz probes.
// Without it the probes still exist and report the process as ready.
func WithHealth(st *health.State) Option {
	return func(h *Handler) { h.health = st }
}

// WithMaxInFlight bounds concurrently served API requests; excess requests
// are shed with 503 + Retry-After instead of queueing without bound.
// n <= 0 (the default) disables shedding.
func WithMaxInFlight(n int) Option {
	return func(h *Handler) { h.maxInFlight = int64(n) }
}

// WithNotPrimary marks the node a read replica: mutating routes answer
// 403 with a JSON body naming the current leader (leader() may return ""
// when unknown) instead of writing into the local engine. Without this
// gate a follower's HTTP API would accept writes directly and silently
// diverge from the replication stream — only the primary may mutate.
// leader is called per rejected request, so a leadership change observed
// by the replication layer is reflected immediately.
func WithNotPrimary(leader func() string) Option {
	return func(h *Handler) { h.leader = leader }
}

// WithTenants attaches a tenant registry: tenant-attributable routes
// (/api/link, entry writes, import) are charged against their corpus's
// token bucket and write quotas before the engine executes anything. Nil
// (the default) disables enforcement.
func WithTenants(r *tenant.Registry) Option {
	return func(h *Handler) { h.tenants = r }
}

// WithDynamicPrimary gates mutating routes on a failover-cluster node whose
// role changes at runtime: each mutating request consults isPrimary() and is
// served normally on the current primary or answered with the WithNotPrimary
// 403 redirect everywhere else. leader() names the node writes should go to
// (may return "" mid-election).
func WithDynamicPrimary(isPrimary func() bool, leader func() string) Option {
	return func(h *Handler) {
		h.isPrimary = isPrimary
		h.leader = leader
	}
}

// New builds the HTTP handler around an engine. Routes share the engine's
// telemetry registry; when the engine was built with telemetry disabled the
// handler keeps a private registry so /metrics still serves the HTTP-layer
// families.
func New(engine *core.Engine, opts ...Option) *Handler {
	reg := engine.Telemetry()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	h := &Handler{engine: engine, mux: http.NewServeMux(), reg: reg}
	for _, opt := range opts {
		opt(h)
	}
	h.res = newResilience(reg, h.maxInFlight)
	h.tenantRequests = reg.CounterVec("nnexus_http_tenant_requests_total",
		"Tenant-attributable HTTP requests admitted past the tenant gate, by corpus.", "corpus")
	h.tenantRejected = reg.CounterVec("nnexus_http_tenant_rejected_total",
		"HTTP requests rejected by the tenant gate, by corpus and reason.", "corpus", "reason")
	m := newHTTPMetrics(reg)
	routes := []struct {
		pattern string // method + route, for mux registration
		label   string // endpoint label (route only, metrics-friendly)
		mutates bool   // writes engine state; rejected on a read replica
		handler http.HandlerFunc
	}{
		{"GET /{$}", "/", false, h.form},
		{"POST /api/link", "/api/link", false, h.link},
		{"POST /api/entries", "/api/entries", true, h.createEntry},
		{"GET /api/entries/{id}", "/api/entries/{id}", false, h.getEntry},
		{"PUT /api/entries/{id}", "/api/entries/{id}", true, h.updateEntry},
		{"DELETE /api/entries/{id}", "/api/entries/{id}", true, h.removeEntry},
		{"GET /api/entries/{id}/linked", "/api/entries/{id}/linked", false, h.linkedEntry},
		{"PUT /api/entries/{id}/policy", "/api/entries/{id}/policy", true, h.setPolicy},
		{"GET /api/invalidated", "/api/invalidated", false, h.invalidated},
		{"POST /api/relink", "/api/relink", true, h.relink},
		{"GET /api/stats", "/api/stats", false, h.stats},
		{"POST /api/import", "/api/import", true, h.importOAI},
		{"GET /metrics", "/metrics", false, h.metrics},
	}
	for _, rt := range routes {
		handler := rt.handler
		if rt.mutates && h.leader != nil {
			if h.isPrimary != nil {
				inner := rt.handler
				handler = func(w http.ResponseWriter, r *http.Request) {
					if h.isPrimary() {
						inner(w, r)
						return
					}
					h.notPrimary(w, r)
				}
			} else {
				handler = h.notPrimary
			}
		}
		h.mux.HandleFunc(rt.pattern, h.res.protect(m.instrument(rt.label, handler)))
	}
	// Probes bypass shedding (but keep panic recovery): liveness and
	// readiness must answer even when the API is saturated or draining.
	h.mux.HandleFunc("GET /healthz", h.res.recoverOnly(m.instrument("/healthz", h.healthz)))
	h.mux.HandleFunc("GET /readyz", h.res.recoverOnly(m.instrument("/readyz", h.readyz)))
	return h
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	if err := h.health.Live(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyz answers the readiness probe with a JSON report carrying
// per-component detail (store, engine, replication role + lag). The status
// code is the contract — 200 ready, 503 otherwise — and is unchanged from
// the plain-text era; the body is for operators and dashboards.
func (h *Handler) readyz(w http.ResponseWriter, r *http.Request) {
	rep := h.health.Report()
	status := http.StatusOK
	if !rep.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// notPrimary answers every mutating route on a read replica. The body
// mirrors the wire protocol's notPrimary error: clients should retry the
// write against the named leader.
func (h *Handler) notPrimary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusForbidden, map[string]string{
		"error":  "not primary: this node is a read replica",
		"leader": h.leader(),
	})
}

// corpusOf resolves a request's corpus name against the engine's default.
func (h *Handler) corpusOf(name string) string {
	if name == "" {
		return h.engine.DefaultCorpus()
	}
	return corpus.CorpusOrDefault(name)
}

// tenantAllow charges one request against corpusName's token bucket. On
// rejection it answers 429 with a Retry-After header and a typed JSON body
// (code "rateLimited") and reports false; the engine never ran, so the
// client may retry after the backoff, mirroring the wire contract.
func (h *Handler) tenantAllow(w http.ResponseWriter, corpusName string) bool {
	if h.tenants == nil {
		return true
	}
	if err := h.tenants.Allow(corpusName); err != nil {
		var rl *tenant.RateLimitedError
		retry := 1
		if errors.As(err, &rl) && rl.RetryAfter > 0 {
			retry = int(rl.RetryAfter/time.Second) + 1
		}
		h.tenantRejected.With(corpusName, "rateLimited").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": err.Error(), "code": "rateLimited",
		})
		return false
	}
	h.tenantRequests.With(corpusName).Inc()
	return true
}

// checkQuota pre-checks storing entry under id (0 for a new entry) against
// corpusName's quotas; what the write charges is the engine's rule
// (core.Engine.WriteCharge). A violation is counted and returned.
func (h *Handler) checkQuota(corpusName string, id int64, entry *corpus.Entry) error {
	if h.tenants == nil {
		return nil
	}
	addEntries, addBytes := h.engine.WriteCharge(id, corpusName, core.EntrySize(entry))
	usedEntries, usedBytes := h.engine.CorpusUsage(corpusName)
	err := h.tenants.CheckQuota(corpusName, usedEntries, usedBytes, addEntries, addBytes)
	if err != nil {
		h.tenantRejected.With(corpusName, "quotaExceeded").Inc()
	}
	return err
}

// tenantQuota is checkQuota for a single-entry request: on violation it
// answers 403 with a typed JSON body (code "quotaExceeded") and reports
// false — rejected before execution, but an unchanged retry cannot succeed.
func (h *Handler) tenantQuota(w http.ResponseWriter, corpusName string, id int64, entry *corpus.Entry) bool {
	if err := h.checkQuota(corpusName, id, entry); err != nil {
		writeJSON(w, http.StatusForbidden, map[string]string{
			"error": err.Error(), "code": "quotaExceeded",
		})
		return false
	}
	return true
}

// linkRequest is the /api/link request body.
type linkRequest struct {
	Text    string   `json:"text"`
	Classes []string `json:"classes,omitempty"`
	Scheme  string   `json:"scheme,omitempty"`
	// Corpus names the tenant corpus the text links on behalf of (rate
	// limiting, accounting, default link target); empty means the engine's
	// default corpus. Targets is the ordered cross-corpus link policy;
	// empty means self-linking.
	Corpus  string   `json:"corpus,omitempty"`
	Targets []string `json:"targets,omitempty"`
	Mode    string   `json:"mode,omitempty"`
	Format  string   `json:"format,omitempty"`
}

func (h *Handler) link(w http.ResponseWriter, r *http.Request) {
	var req linkRequest
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/x-www-form-urlencoded") ||
		strings.HasPrefix(ct, "multipart/form-data") {
		// The interactive form posts urlencoded fields.
		if err := r.ParseForm(); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		req.Text = r.PostFormValue("text")
		if cs := strings.TrimSpace(r.PostFormValue("classes")); cs != "" {
			for _, c := range strings.Split(cs, ",") {
				req.Classes = append(req.Classes, strings.TrimSpace(c))
			}
		}
		req.Corpus = r.PostFormValue("corpus")
		if ts := strings.TrimSpace(r.PostFormValue("targets")); ts != "" {
			for _, t := range strings.Split(ts, ",") {
				req.Targets = append(req.Targets, strings.TrimSpace(t))
			}
		}
		req.Mode = r.PostFormValue("mode")
		req.Format = r.PostFormValue("format")
	} else {
		if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	opts, err := parseOptions(req.Mode, req.Format)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts.SourceClasses = req.Classes
	opts.SourceScheme = req.Scheme
	opts.SourceCorpus = req.Corpus
	opts.TargetCorpora = req.Targets
	if !h.tenantAllow(w, h.corpusOf(req.Corpus)) {
		return
	}
	res, err := h.engine.LinkText(req.Text, opts)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (h *Handler) createEntry(w http.ResponseWriter, r *http.Request) {
	var entry corpus.Entry
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&entry); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cn := h.corpusOf(entry.Corpus)
	if !h.tenantAllow(w, cn) || !h.tenantQuota(w, cn, 0, &entry) {
		return
	}
	id, err := h.engine.AddEntry(&entry)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
}

func (h *Handler) getEntry(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	entry, found := h.engine.Entry(id)
	if !found {
		httpError(w, http.StatusNotFound, fmt.Errorf("entry %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, entry)
}

func (h *Handler) updateEntry(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var entry corpus.Entry
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&entry); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	entry.ID = id
	cn := h.corpusOf(entry.Corpus)
	if !h.tenantAllow(w, cn) || !h.tenantQuota(w, cn, id, &entry) {
		return
	}
	if err := h.engine.UpdateEntry(&entry); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *Handler) removeEntry(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	if err := h.engine.RemoveEntry(id); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *Handler) linkedEntry(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	res, cached, err := h.engine.LinkEntryCached(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("X-NNexus-Cache", map[bool]string{true: "hit", false: "miss"}[cached])
	writeJSON(w, http.StatusOK, res)
}

func (h *Handler) setPolicy(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := h.engine.SetPolicy(id, string(body)); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *Handler) invalidated(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]int64{"invalidated": h.engine.Invalidated()})
}

func (h *Handler) relink(w http.ResponseWriter, r *http.Request) {
	results, err := h.engine.RelinkInvalidated()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"relinked": len(results)})
}

// importOAI streams an OAI-style XML dump into the collection. The dump's
// domain must already be registered.
func (h *Handler) importOAI(w http.ResponseWriter, r *http.Request) {
	n := 0
	_, _, err := corpus.ImportOAIStream(io.LimitReader(r.Body, 256<<20), func(entry *corpus.Entry) error {
		// Quota is enforced per entry against live usage, so a stream
		// cannot blow through a corpus's quota in one request; the entries
		// already imported stay.
		if qerr := h.checkQuota(h.corpusOf(entry.Corpus), 0, entry); qerr != nil {
			return qerr
		}
		if _, err := h.engine.AddEntry(entry); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		if tenant.IsQuotaExceeded(err) {
			writeJSON(w, http.StatusForbidden, map[string]interface{}{
				"error": fmt.Sprintf("imported %d entries, then: %v", n, err),
				"code":  "quotaExceeded", "imported": n,
			})
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("imported %d entries, then: %w", n, err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"imported": n})
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	hits, misses := h.engine.CacheStats()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"entries":     h.engine.NumEntries(),
		"concepts":    h.engine.NumConcepts(),
		"domains":     h.engine.Domains(),
		"invalidated": len(h.engine.Invalidated()),
		"cacheHits":   hits,
		"cacheMisses": misses,
		"metrics":     h.engine.Metrics(),
		"telemetry":   h.reg.Snapshot(),
	})
}

// metrics serves the telemetry registry in the Prometheus text exposition
// format, for scraping by any Prometheus-compatible collector.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = h.reg.WritePrometheus(w)
}

var formTmpl = template.Must(template.New("form").Parse(`<!DOCTYPE html>
<html><head><title>NNexus on-demand linking</title></head>
<body>
<h1>NNexus</h1>
<p>{{.Entries}} entries / {{.Concepts}} concepts across {{.Domains}} domain(s).</p>
<form action="/api/link" method="POST">
<p><textarea name="text" rows="8" cols="80" placeholder="Paste text to link..."></textarea></p>
<p>source classes: <input name="classes" size="30" placeholder="05C10, 05C40">
   mode: <select name="mode">
     <option value="">default</option>
     <option value="lexical">lexical</option>
     <option value="steered">steered</option>
     <option value="steered+policies">steered+policies</option>
   </select>
   format: <select name="format"><option>html</option><option>markdown</option></select></p>
<p><input type="submit" value="Link"></p>
</form>
</body></html>
`))

func (h *Handler) form(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = formTmpl.Execute(w, map[string]interface{}{
		"Entries":  h.engine.NumEntries(),
		"Concepts": h.engine.NumConcepts(),
		"Domains":  len(h.engine.Domains()),
	})
}

func parseOptions(mode, format string) (core.LinkOptions, error) {
	var opts core.LinkOptions
	switch strings.ToLower(mode) {
	case "", "default":
	case "lexical":
		opts.Mode = core.ModeLexical
	case "steered":
		opts.Mode = core.ModeSteered
	case "steered+policies", "full":
		opts.Mode = core.ModeSteeredPolicies
	default:
		return opts, fmt.Errorf("unknown mode %q", mode)
	}
	switch strings.ToLower(format) {
	case "", "html":
	case "markdown", "md":
		f := render.Markdown
		opts.Format = &f
	default:
		return opts, fmt.Errorf("unknown format %q", format)
	}
	return opts, nil
}

func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad entry id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
