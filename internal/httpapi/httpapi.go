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
// Every /api route runs the request pipeline of internal/service under the
// name of its XML-protocol twin (POST /api/link is linkText, PUT
// /api/entries/{id} is updateEntry, ...), so it is admitted, routed and
// acknowledged exactly as that method is over the socket; see fail for how
// the pipeline's typed errors answer.
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
	"nnexus/internal/replication"
	"nnexus/internal/service"
	"nnexus/internal/telemetry"
	"nnexus/internal/tenant"
	"nnexus/internal/wire"
)

// Handler serves the HTTP API for one engine.
type Handler struct {
	engine      *core.Engine
	mux         *http.ServeMux
	reg         *telemetry.Registry
	health      *health.State
	maxInFlight int64
	res         *resilience

	// svc runs every route's admit, route and acknowledge stages under the
	// node's one policy, the value the TCP layer holds too.
	svc *service.Service
}

// Option customises a Handler.
type Option func(*Handler)

// WithMaxInFlight bounds concurrently served API requests; excess requests
// are shed with 503 + Retry-After instead of queueing without bound.
// n <= 0 (the default) disables shedding.
func WithMaxInFlight(n int) Option {
	return func(h *Handler) { h.maxInFlight = int64(n) }
}

// New builds the HTTP handler in front of a node's service: every /api
// route executes against its engine under its policy — where the role is not
// primary, mutating routes answer 403 with a JSON body naming the current
// leader ("" when unknown, e.g. mid-election) instead of writing into the
// local engine; with quorum acks a write that applied but missed its follower
// confirmations answers 503 "quorumUnavailable". st backs the /healthz and
// /readyz probes; nil reports the process as ready. Routes share the engine's
// telemetry registry.
func New(svc *service.Service, st *health.State, opts ...Option) *Handler {
	engine := svc.Engine()
	reg := engine.Telemetry()
	h := &Handler{engine: engine, mux: http.NewServeMux(), reg: reg, health: st, svc: svc}
	for _, opt := range opts {
		opt(h)
	}
	h.res = newResilience(reg, h.maxInFlight)
	m := newHTTPMetrics(reg)
	routes := []struct {
		pattern string // method + route, for mux registration
		label   string // endpoint label (route only, metrics-friendly)
		handler http.HandlerFunc
	}{
		{"GET /{$}", "/", h.form},
		{"POST /api/link", "/api/link", h.link},
		{"POST /api/entries", "/api/entries", h.createEntry},
		{"GET /api/entries/{id}", "/api/entries/{id}", h.getEntry},
		{"PUT /api/entries/{id}", "/api/entries/{id}", h.updateEntry},
		{"DELETE /api/entries/{id}", "/api/entries/{id}", h.removeEntry},
		{"GET /api/entries/{id}/linked", "/api/entries/{id}/linked", h.linkedEntry},
		{"PUT /api/entries/{id}/policy", "/api/entries/{id}/policy", h.setPolicy},
		{"GET /api/invalidated", "/api/invalidated", h.invalidated},
		{"POST /api/relink", "/api/relink", h.relink},
		{"GET /api/stats", "/api/stats", h.stats},
		{"POST /api/import", "/api/import", h.importOAI},
		{"GET /metrics", "/metrics", h.metrics},
	}
	for _, rt := range routes {
		h.mux.HandleFunc(rt.pattern, h.res.protect(m.instrument(rt.label, rt.handler)))
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

// fail answers an error: each typed error of the request pipeline has its
// own status and "code" (of them only quorumUnavailable means the request
// executed), anything else answers fallback, the status the route gives its
// engine call's own errors. What the call reported before the failure — the
// id of an entry that applied but missed its quorum, the count an import got
// to — is kept in the body.
func fail(w http.ResponseWriter, err error, fallback int, partial interface{}) {
	var limited *tenant.RateLimitedError
	var notPrimary *replication.NotPrimaryError
	status, body := fallback, map[string]interface{}{"error": err.Error()}
	switch {
	case errors.As(err, &limited):
		// The engine never ran, so the client may retry after the backoff.
		w.Header().Set("Retry-After", strconv.Itoa(int(limited.RetryAfter/time.Second)+1))
		status, body["code"] = http.StatusTooManyRequests, wire.CodeRateLimited
	case tenant.IsQuotaExceeded(err):
		// Rejected before execution, but an unchanged retry cannot succeed.
		status, body["code"] = http.StatusForbidden, wire.CodeQuotaExceeded
	case errors.As(err, &notPrimary):
		// As the wire protocol's notPrimary: retry the write at the leader.
		status, body["code"] = http.StatusForbidden, wire.CodeNotPrimary
		body["leader"] = notPrimary.Leader
	case errors.Is(err, replication.ErrQuorumUnavailable):
		status, body["code"] = http.StatusServiceUnavailable, wire.CodeQuorumUnavailable
	}
	if fields, ok := partial.(map[string]interface{}); ok {
		for k, v := range fields {
			body[k] = v
		}
	}
	writeJSON(w, status, body)
}

// serve runs one route through the request pipeline under the name of its
// wire twin, and answers exec's reply with status ok or fails as above.
func (h *Handler) serve(w http.ResponseWriter, req service.Request, ok, fallback int, exec func() (interface{}, error)) {
	var reply interface{}
	err := h.svc.Do(req, func() (err error) {
		reply, err = exec()
		return err
	})
	if err != nil {
		fail(w, err, fallback, reply)
		return
	}
	writeJSON(w, ok, reply)
}

// decodeBody reads a JSON request body of at most service.MaxRequestBytes
// into v, answering 413 past the limit and 400 for anything malformed.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, service.MaxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, err)
	} else if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return err == nil
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
	} else if !decodeBody(w, r, &req) {
		return
	}
	opts, err := service.ParseLinkOptions(req.Mode, req.Format)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts.SourceClasses, opts.SourceScheme = req.Classes, req.Scheme
	opts.SourceCorpus, opts.TargetCorpora = req.Corpus, req.Targets
	h.svc.DefaultTargets(&opts)
	h.serve(w, service.Request{Method: wire.MethodLinkText, Corpus: req.Corpus},
		http.StatusOK, http.StatusInternalServerError, func() (interface{}, error) {
			return h.engine.LinkText(req.Text, opts)
		})
}

// storeRequest describes a route that stores entry under id (0 = new) to the
// request pipeline: it is charged to the entry's corpus.
func storeRequest(method string, id int64, entry *corpus.Entry) service.Request {
	return service.Request{Method: method, Corpus: entry.Corpus,
		Writes: []service.Write{{ID: id, Size: core.EntrySize(entry)}}}
}

func (h *Handler) createEntry(w http.ResponseWriter, r *http.Request) {
	var entry corpus.Entry
	if !decodeBody(w, r, &entry) {
		return
	}
	h.serve(w, storeRequest(wire.MethodAddEntry, 0, &entry),
		http.StatusCreated, http.StatusBadRequest, func() (interface{}, error) {
			id, err := h.engine.AddEntry(&entry)
			if err != nil {
				return nil, err
			}
			return map[string]interface{}{"id": id}, nil
		})
}

func (h *Handler) getEntry(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	h.serve(w, service.Request{Method: wire.MethodGetEntry},
		http.StatusOK, http.StatusNotFound, func() (interface{}, error) {
			entry, found := h.engine.Entry(id)
			if !found {
				return nil, fmt.Errorf("entry %d not found", id)
			}
			return entry, nil
		})
}

func (h *Handler) updateEntry(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var entry corpus.Entry
	if !decodeBody(w, r, &entry) {
		return
	}
	entry.ID = id
	h.serve(w, storeRequest(wire.MethodUpdateEntry, id, &entry),
		http.StatusOK, http.StatusBadRequest, func() (interface{}, error) {
			return map[string]string{"status": "ok"}, h.engine.UpdateEntry(&entry)
		})
}

func (h *Handler) removeEntry(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	h.serve(w, service.Request{Method: wire.MethodRemoveEntry},
		http.StatusOK, http.StatusNotFound, func() (interface{}, error) {
			return map[string]string{"status": "ok"}, h.engine.RemoveEntry(id)
		})
}

func (h *Handler) linkedEntry(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	h.serve(w, service.Request{Method: wire.MethodLinkEntry},
		http.StatusOK, http.StatusNotFound, func() (interface{}, error) {
			res, cached, err := h.engine.LinkEntryCached(id)
			if err == nil {
				w.Header().Set("X-NNexus-Cache", map[bool]string{true: "hit", false: "miss"}[cached])
			}
			return res, err
		})
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
	h.serve(w, service.Request{Method: wire.MethodSetPolicy},
		http.StatusOK, http.StatusBadRequest, func() (interface{}, error) {
			return map[string]string{"status": "ok"}, h.engine.SetPolicy(id, string(body))
		})
}

func (h *Handler) invalidated(w http.ResponseWriter, r *http.Request) {
	h.serve(w, service.Request{Method: wire.MethodInvalidated},
		http.StatusOK, http.StatusInternalServerError, func() (interface{}, error) {
			return map[string][]int64{"invalidated": h.engine.Invalidated()}, nil
		})
}

func (h *Handler) relink(w http.ResponseWriter, r *http.Request) {
	h.serve(w, service.Request{Method: wire.MethodRelink},
		http.StatusOK, http.StatusInternalServerError, func() (interface{}, error) {
			results, err := h.engine.RelinkInvalidated()
			return map[string]int{"relinked": len(results)}, err
		})
}

// importOAI streams an OAI-style XML dump into the collection. The dump's
// domain must already be registered. It is one addEntries request to the
// pipeline — admitted, routed and acknowledged once — whose entries are
// unknown until they stream in.
func (h *Handler) importOAI(w http.ResponseWriter, r *http.Request) {
	h.serve(w, service.Request{Method: wire.MethodAddEntries},
		http.StatusOK, http.StatusBadRequest, func() (interface{}, error) {
			n := 0
			_, _, err := corpus.ImportOAIStream(io.LimitReader(r.Body, 256<<20), func(entry *corpus.Entry) error {
				// Quota is enforced per entry against live usage, so a
				// stream cannot blow through a corpus's quota in one
				// request; the entries already imported stay.
				if err := h.svc.CheckQuota(entry.Corpus, service.Write{Size: core.EntrySize(entry)}); err != nil {
					return err
				}
				if _, err := h.engine.AddEntry(entry); err != nil {
					return err
				}
				n++
				return nil
			})
			if err != nil {
				err = fmt.Errorf("imported %d entries, then: %w", n, err)
			}
			return map[string]interface{}{"imported": n}, err
		})
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	h.serve(w, service.Request{Method: wire.MethodStats},
		http.StatusOK, http.StatusInternalServerError, func() (interface{}, error) {
			hits, misses := h.engine.CacheStats()
			return map[string]interface{}{
				"entries":     h.engine.NumEntries(),
				"concepts":    h.engine.NumConcepts(),
				"domains":     h.engine.Domains(),
				"invalidated": len(h.engine.Invalidated()),
				"cacheHits":   hits,
				"cacheMisses": misses,
				"metrics":     h.engine.Metrics(),
				"telemetry":   h.reg.Snapshot(),
			}, nil
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
