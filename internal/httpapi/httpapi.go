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
// Every /api route runs the request pipeline of internal/service as its
// XML-protocol twin (POST /api/link is linkText, PUT /api/entries/{id} is
// updateEntry, ...), so it is shed, routed, executed and acknowledged exactly
// as that method is over the socket. Most routes only decode their path and
// body into the twin's wire request and run it through the service's method
// table, Service.Call (see apiCalls); /linked, /api/stats and the streamed
// /api/import keep bodies of their own. See fail for how errors answer.
//
// Every route is instrumented into the engine's telemetry registry:
// request counts by endpoint and status class, latency histograms per
// endpoint, and an in-flight gauge (see internal/telemetry).
//
// Resilience: every route runs behind panic recovery (a panicking handler
// answers 500 and bumps nnexus_panics_recovered_total{layer="http"} instead
// of killing the process). An /api route holds one of the node's in-flight
// slots (the service's MaxActive, which the socket server's requests take
// too) from before its body is read, and with none free answers 503 +
// Retry-After, counted in nnexus_requests_shed_total{layer="http"}. The
// probes, /metrics and the form take no slot and are never shed: an
// overloaded server is still live, observable and ready.
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

	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/health"
	"nnexus/internal/service"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

// Handler serves the HTTP API for one engine.
type Handler struct {
	engine *core.Engine
	mux    *http.ServeMux
	reg    *telemetry.Registry
	health *health.State

	// svc runs every route's stages under the node's one policy, the engine
	// call included, the value the TCP layer holds too.
	svc *service.Service

	// The shed and panic families are shared with the TCP server (same
	// names, "layer" label), so one dashboard covers both serving layers.
	shed   *telemetry.Counter // nnexus_requests_shed_total{layer="http"}
	panics *telemetry.Counter // nnexus_panics_recovered_total{layer="http"}
}

// New builds the HTTP handler in front of a node's service: every /api
// route executes against its engine under its policy — where the role is not
// primary, mutating routes answer 403 with a JSON body naming the current
// leader ("" when unknown, e.g. mid-election) instead of writing into the
// local engine; with quorum acks a write that applied but missed its follower
// confirmations answers 503 "quorumUnavailable". st backs the /healthz and
// /readyz probes; nil reports the process as ready. Routes share the engine's
// telemetry registry.
func New(svc *service.Service, st *health.State) *Handler {
	engine := svc.Engine()
	reg := engine.Telemetry()
	h := &Handler{engine: engine, mux: http.NewServeMux(), reg: reg, health: st, svc: svc,
		shed: reg.CounterVec("nnexus_requests_shed_total",
			"Requests rejected by load shedding, by serving layer.", "layer").With("http"),
		panics: reg.CounterVec("nnexus_panics_recovered_total",
			"Handler panics recovered into error responses, by serving layer.", "layer").With("http"),
	}
	m := newHTTPMetrics(reg)
	// handle registers a route under its endpoint label, the route alone.
	// twin is the wire method an /api route runs as, and takes an in-flight
	// slot under; "" for the routes never shed.
	handle := func(pattern, twin string, handler http.HandlerFunc) {
		handler = m.instrument(strings.TrimSuffix(pattern[strings.IndexByte(pattern, ' ')+1:], "{$}"), handler)
		if twin == "" {
			h.mux.HandleFunc(pattern, h.recovered(handler))
		} else {
			h.mux.HandleFunc(pattern, h.protect(twin, handler))
		}
	}
	for _, c := range apiCalls {
		handle(c.pattern, c.twin, h.call(c))
	}
	handle("GET /api/entries/{id}/linked", wire.MethodLinkEntry, h.linkedEntry)
	handle("GET /api/stats", wire.MethodStats, h.stats)
	handle("POST /api/import", wire.MethodAddEntries, h.importOAI)
	handle("GET /{$}", "", h.form)
	handle("GET /metrics", "", h.metrics)
	handle("GET /healthz", "", h.healthz)
	handle("GET /readyz", "", h.readyz)
	return h
}

// apiCall is a route that runs its wire twin through the service's method
// table: decode fills the twin's request from the HTTP request, body picks
// the route's JSON body out of the reply. It answers ok, or fallback for the
// engine call's own errors.
type apiCall struct {
	pattern, twin string
	ok, fallback  int
	decode        func(http.ResponseWriter, *http.Request, *wire.Request) error
	body          func(*service.Reply) interface{}
}

var apiCalls = []apiCall{
	{"POST /api/link", wire.MethodLinkText, http.StatusOK, http.StatusInternalServerError, decodeLink,
		func(r *service.Reply) interface{} { return r.Result }},
	{"POST /api/entries", wire.MethodAddEntry, http.StatusCreated, http.StatusBadRequest, decodeEntry,
		func(r *service.Reply) interface{} { return map[string]interface{}{"id": r.Object} }},
	{"GET /api/entries/{id}", wire.MethodGetEntry, http.StatusOK, http.StatusNotFound, decodeID,
		func(r *service.Reply) interface{} { return r.Entry }},
	{"PUT /api/entries/{id}", wire.MethodUpdateEntry, http.StatusOK, http.StatusBadRequest, decodeUpdate, okBody},
	{"DELETE /api/entries/{id}", wire.MethodRemoveEntry, http.StatusOK, http.StatusNotFound, decodeID, okBody},
	{"PUT /api/entries/{id}/policy", wire.MethodSetPolicy, http.StatusOK, http.StatusBadRequest, decodePolicy, okBody},
	{"GET /api/invalidated", wire.MethodInvalidated, http.StatusOK, http.StatusInternalServerError, nil,
		func(r *service.Reply) interface{} { return map[string][]int64{"invalidated": r.Invalidated} }},
	{"POST /api/relink", wire.MethodRelink, http.StatusOK, http.StatusInternalServerError, nil,
		func(r *service.Reply) interface{} { return map[string]int64{"relinked": r.Object} }},
}

func okBody(*service.Reply) interface{} { return map[string]string{"status": "ok"} }

// call serves one apiCall: a request that does not decode answers 400 (413
// past service.MaxRequestBytes) before it takes its slot.
func (h *Handler) call(c apiCall) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := new(wire.Request)
		if c.decode != nil {
			if err := c.decode(w, r, req); err != nil {
				h.fail(w, err, http.StatusBadRequest, nil)
				return
			}
		}
		req.Method = c.twin
		h.serve(w, c.twin, c.ok, c.fallback, func() (interface{}, error) {
			reply, err := h.svc.Call(req)
			if err != nil {
				return nil, err
			}
			return c.body(reply), nil
		})
	}
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

// codeStatus is the HTTP status of each code service.Code names that a route
// can earn; of them only quorumUnavailable means the request executed.
var codeStatus = map[string]int{
	wire.CodeOverloaded:        http.StatusServiceUnavailable,
	wire.CodeNotPrimary:        http.StatusForbidden, // retry the write at the leader
	wire.CodeQuorumUnavailable: http.StatusServiceUnavailable,
	wire.CodeFailed:            http.StatusInternalServerError, // until a restart
}

// fail answers an error: a typed error of the request pipeline carries the
// "code" and leader service.Code names for it, under that code's status; a
// link option that does not parse answers 400, a body over
// service.MaxRequestBytes 413, and anything else fallback, the status the
// route gives its engine call's own errors. What the call reported before
// the failure — the id of an entry that applied but missed its quorum, the
// count an import got to — is kept in the body.
func (h *Handler) fail(w http.ResponseWriter, err error, fallback int, partial interface{}) {
	status, body := fallback, map[string]interface{}{"error": err.Error()}
	var (
		invalid  *service.InvalidError
		tooLarge *http.MaxBytesError
	)
	switch {
	case errors.As(err, &invalid):
		status = http.StatusBadRequest
	case errors.As(err, &tooLarge):
		status, body["error"] = http.StatusRequestEntityTooLarge, tooLarge.Error()
	}
	if code, leader := h.svc.Code(err); code != "" {
		body["code"] = code
		if s, ok := codeStatus[code]; ok {
			status = s
		}
		if leader != "" || code == wire.CodeNotPrimary {
			body["leader"] = leader
		}
	}
	// Shed before it ran: the client may retry after a second.
	if errors.Is(err, service.ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
	}
	if fields, ok := partial.(map[string]interface{}); ok {
		for k, v := range fields {
			body[k] = v
		}
	}
	writeJSON(w, status, body)
}

// serve runs one request of method through the pipeline after shed, exec
// being its execute stage, and answers exec's reply with status ok or fails
// as above.
func (h *Handler) serve(w http.ResponseWriter, method string, ok, fallback int, exec func() (interface{}, error)) {
	var reply interface{}
	err := h.svc.Execute(method, func() (err error) {
		reply, err = exec()
		return err
	})
	if err != nil {
		h.fail(w, err, fallback, reply)
		return
	}
	writeJSON(w, ok, reply)
}

// readJSON reads a JSON request body of at most service.MaxRequestBytes into
// v.
func readJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, service.MaxRequestBytes)).Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeLink reads POST /api/link: the interactive form's urlencoded fields,
// else a JSON object whose keys name the request's fields (text, classes,
// scheme, corpus, targets, mode, format). A form without a text field — a
// JSON body sent under a form's content type, as curl -d does — is refused;
// an empty text= is linked.
func decodeLink(w http.ResponseWriter, r *http.Request, req *wire.Request) error {
	ct := r.Header.Get("Content-Type")
	if !strings.HasPrefix(ct, "application/x-www-form-urlencoded") &&
		!strings.HasPrefix(ct, "multipart/form-data") {
		return readJSON(w, r, req)
	}
	if err := r.ParseForm(); err != nil {
		return err
	}
	req.Text, req.Corpus = r.PostFormValue("text"), r.PostFormValue("corpus")
	req.Mode, req.Format = r.PostFormValue("mode"), r.PostFormValue("format")
	req.Classes, req.Targets = formList(r, "classes"), formList(r, "targets")
	if _, ok := r.PostForm["text"]; !ok {
		return service.Invalidf("link form has no text field (a JSON body needs Content-Type: application/json)")
	}
	return nil
}

// formList reads a comma-separated form field.
func formList(r *http.Request, key string) []string {
	var items []string
	if v := strings.TrimSpace(r.PostFormValue(key)); v != "" {
		for _, item := range strings.Split(v, ",") {
			items = append(items, strings.TrimSpace(item))
		}
	}
	return items
}

// decodeID reads the entry ID in the path.
func decodeID(w http.ResponseWriter, r *http.Request, req *wire.Request) (err error) {
	if req.Object, err = strconv.ParseInt(r.PathValue("id"), 10, 64); err != nil {
		return fmt.Errorf("bad entry id %q", r.PathValue("id"))
	}
	return nil
}

// decodeEntry reads an entry's JSON body.
func decodeEntry(w http.ResponseWriter, r *http.Request, req *wire.Request) error {
	req.Entry = new(corpus.Entry)
	return readJSON(w, r, req.Entry)
}

// decodeUpdate reads the entry of PUT /api/entries/{id}, under the path's ID.
func decodeUpdate(w http.ResponseWriter, r *http.Request, req *wire.Request) error {
	if err := decodeID(w, r, req); err != nil {
		return err
	}
	if err := decodeEntry(w, r, req); err != nil {
		return err
	}
	req.Entry.ID = req.Object
	return nil
}

// decodePolicy reads a policy's plain text; past service.MaxRequestBytes it
// is refused whole, not cut short.
func decodePolicy(w http.ResponseWriter, r *http.Request, req *wire.Request) error {
	if err := decodeID(w, r, req); err != nil {
		return err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxRequestBytes))
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	req.Policy = string(body)
	return nil
}

// linkedEntry serves the §2.5 cache table's rendering of an entry, which no
// wire method reads: a hit or miss in X-NNexus-Cache.
func (h *Handler) linkedEntry(w http.ResponseWriter, r *http.Request) {
	req := &wire.Request{Method: wire.MethodLinkEntry}
	if err := decodeID(w, r, req); err != nil {
		h.fail(w, err, http.StatusBadRequest, nil)
		return
	}
	h.serve(w, req.Method, http.StatusOK, http.StatusNotFound, func() (interface{}, error) {
		res, cached, err := h.engine.LinkEntryCached(req.Object)
		if err == nil {
			w.Header().Set("X-NNexus-Cache", map[bool]string{true: "hit", false: "miss"}[cached])
		}
		return res, err
	})
}

// importOAI streams an OAI-style XML dump into the collection. The dump's
// domain must already be registered. It is one addEntries request to the
// pipeline — routed and acknowledged once — whose entries are
// unknown until they stream in; each is stored by the method table's
// addEntry.
func (h *Handler) importOAI(w http.ResponseWriter, r *http.Request) {
	h.serve(w, wire.MethodAddEntries, http.StatusOK, http.StatusBadRequest, func() (interface{}, error) {
		n := 0
		_, _, err := corpus.ImportOAIStream(io.LimitReader(r.Body, 256<<20), func(entry *corpus.Entry) error {
			if _, err := h.svc.Call(&wire.Request{Method: wire.MethodAddEntry, Entry: entry}); err != nil {
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

// stats answers the collection's statistics with the telemetry snapshot, a
// body of its own beside the wire's stats.
func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	h.serve(w, wire.MethodStats, http.StatusOK, http.StatusInternalServerError, func() (interface{}, error) {
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

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
