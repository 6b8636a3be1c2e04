package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/health"
	"nnexus/internal/replication"
	"nnexus/internal/service"
	"nnexus/internal/storage"
	"nnexus/internal/wire"
)

func testServer(t *testing.T) (*core.Engine, *httptest.Server) {
	t.Helper()
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []corpus.Entry{
		{Title: "planar graph", Classes: []string{"05C10"}},
		{Title: "graph", Classes: []string{"05C99"}},
		{Title: "graph", Classes: []string{"03E20"}},
		{Title: "even number", Concepts: []string{"even"}, Classes: []string{"11A51"}},
	} {
		e.Domain = "planetmath.org"
		if _, err := engine.AddEntry(&e); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(New(service.New(engine), nil))
	t.Cleanup(srv.Close)
	return engine, srv
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestLinkEndpoint(t *testing.T) {
	_, srv := testServer(t)
	resp := postJSON(t, srv.URL+"/api/link", map[string]interface{}{
		"text":    "a planar graph is a graph",
		"classes": []string{"05C40"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res core.Result
	decode(t, resp, &res)
	if len(res.Links) != 2 {
		t.Fatalf("links = %+v", res.Links)
	}
	if res.Links[1].Target != 2 {
		t.Errorf("steering over HTTP failed: %+v", res.Links[1])
	}
	if !strings.Contains(res.Output, `<a href="http://pm/`) {
		t.Errorf("output = %q", res.Output)
	}
}

func TestLinkEndpointFormEncoded(t *testing.T) {
	_, srv := testServer(t)
	form := url.Values{
		"text":    {"a planar graph"},
		"classes": {"05C10, 05C40"},
		"format":  {"markdown"},
	}
	resp, err := http.PostForm(srv.URL+"/api/link", form)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	decode(t, resp, &res)
	if !strings.Contains(res.Output, "[planar graph](") {
		t.Errorf("output = %q", res.Output)
	}
}

// TestLinkFormWithoutText: a JSON body posted under curl -d's default
// content type parses as a form whose one key is the whole body, so it has
// no text field; it is refused with the typed 400 rather than linked as an
// empty text. A present but empty text= still links.
func TestLinkFormWithoutText(t *testing.T) {
	_, srv := testServer(t)
	for _, c := range []struct {
		body, want string
		status     int
	}{
		{`{"text":"a planar graph"}`, "no text field", http.StatusBadRequest},
		{"classes=05C10", "no text field", http.StatusBadRequest},
		{"text=", `"output":""`, http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+"/api/link", "application/x-www-form-urlencoded", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status || !strings.Contains(string(body), c.want) {
			t.Errorf("form %q: %d %s, want %d and %q", c.body, resp.StatusCode, body, c.status, c.want)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/api/link", strings.NewReader(`{"text":"x"}`))
	r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	var invalid *service.InvalidError
	if err := decodeLink(httptest.NewRecorder(), r, new(wire.Request)); !errors.As(err, &invalid) {
		t.Errorf("decodeLink = %v, want an *service.InvalidError", err)
	}
}

func TestLinkEndpointBadInput(t *testing.T) {
	_, srv := testServer(t)
	resp := postJSON(t, srv.URL+"/api/link", map[string]string{"mode": "psychic"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err := http.Post(srv.URL+"/api/link", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken json status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestEntryLifecycle(t *testing.T) {
	_, srv := testServer(t)
	resp := postJSON(t, srv.URL+"/api/entries", corpus.Entry{
		Domain: "planetmath.org", Title: "tree", Classes: []string{"05Cxx"},
		Body: "a tree is a graph",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var created map[string]int64
	decode(t, resp, &created)
	id := created["id"]

	getResp, err := http.Get(srv.URL + "/api/entries/" + itoa(id))
	if err != nil {
		t.Fatal(err)
	}
	var entry corpus.Entry
	decode(t, getResp, &entry)
	if entry.Title != "tree" {
		t.Errorf("entry = %+v", entry)
	}

	// Linked rendering (cached on second fetch).
	linked1, err := http.Get(srv.URL + "/api/entries/" + itoa(id) + "/linked")
	if err != nil {
		t.Fatal(err)
	}
	if got := linked1.Header.Get("X-NNexus-Cache"); got != "miss" {
		t.Errorf("first fetch cache header = %q", got)
	}
	var res core.Result
	decode(t, linked1, &res)
	if len(res.Links) == 0 {
		t.Errorf("no links in rendering: %+v", res)
	}
	linked2, err := http.Get(srv.URL + "/api/entries/" + itoa(id) + "/linked")
	if err != nil {
		t.Fatal(err)
	}
	linked2.Body.Close()
	if got := linked2.Header.Get("X-NNexus-Cache"); got != "hit" {
		t.Errorf("second fetch cache header = %q", got)
	}

	// Update.
	entry.Body = "a tree is a connected graph"
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/api/entries/"+itoa(id), jsonBody(t, entry))
	req.Header.Set("Content-Type", "application/json")
	updResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	updResp.Body.Close()
	if updResp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d", updResp.StatusCode)
	}

	// Delete.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/entries/"+itoa(id), nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", delResp.StatusCode)
	}
	notFound, _ := http.Get(srv.URL + "/api/entries/" + itoa(id))
	if notFound.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete = %d", notFound.StatusCode)
	}
	notFound.Body.Close()
}

func TestPolicyEndpoint(t *testing.T) {
	_, srv := testServer(t)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/api/entries/4/policy",
		strings.NewReader("forbid even\nallow even from 11-XX"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy status = %d", resp.StatusCode)
	}
	linkResp := postJSON(t, srv.URL+"/api/link", map[string]interface{}{
		"text": "even so", "classes": []string{"05C40"},
	})
	var res core.Result
	decode(t, linkResp, &res)
	if len(res.Links) != 0 {
		t.Errorf("policy not applied over HTTP: %+v", res.Links)
	}
	// Bad policy text rejected.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/api/entries/4/policy",
		strings.NewReader("frobnicate all"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad policy status = %d", resp.StatusCode)
	}
}

func TestInvalidatedAndRelink(t *testing.T) {
	_, srv := testServer(t)
	resp := postJSON(t, srv.URL+"/api/entries", corpus.Entry{
		Domain: "planetmath.org", Title: "forest", Body: "contains a hypergraph",
	})
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/api/entries", corpus.Entry{
		Domain: "planetmath.org", Title: "hypergraph",
	})
	resp.Body.Close()
	invResp, err := http.Get(srv.URL + "/api/invalidated")
	if err != nil {
		t.Fatal(err)
	}
	var inv map[string][]int64
	decode(t, invResp, &inv)
	if len(inv["invalidated"]) != 1 {
		t.Fatalf("invalidated = %v", inv)
	}
	relinkResp, err := http.Post(srv.URL+"/api/relink", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rel map[string]int
	decode(t, relinkResp, &rel)
	if rel["relinked"] != 1 {
		t.Errorf("relinked = %v", rel)
	}
}

func TestStatsAndForm(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]interface{}
	decode(t, resp, &stats)
	if stats["entries"].(float64) != 4 {
		t.Errorf("stats = %v", stats)
	}
	page, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer page.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(page.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<form action=\"/api/link\"") {
		t.Errorf("form page = %q", buf.String())
	}
}

func TestBadEntryID(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/api/entries/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func itoa(id int64) string { return strconv.FormatInt(id, 10) }

func jsonBody(t *testing.T, v interface{}) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func TestImportEndpoint(t *testing.T) {
	_, srv := testServer(t)
	dump := `<records domain="planetmath.org" scheme="msc">
	  <record id="T1"><title>tensor product</title><class>05C10</class></record>
	  <record id="T2"><title>exterior algebra</title><class>05C10</class></record>
	</records>`
	resp, err := http.Post(srv.URL+"/api/import", "application/xml", strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	decode(t, resp, &out)
	if out["imported"] != 2 {
		t.Fatalf("imported = %v", out)
	}
	// The new concepts link immediately.
	linkResp := postJSON(t, srv.URL+"/api/link", map[string]interface{}{
		"text": "the tensor product", "classes": []string{"05C10"},
	})
	var res core.Result
	decode(t, linkResp, &res)
	if len(res.Links) != 1 {
		t.Errorf("links = %+v", res.Links)
	}
	// Unknown domain in dump fails cleanly.
	bad := `<records domain="ghost.example"><record id="x"><title>t</title></record></records>`
	resp, err = http.Post(srv.URL+"/api/import", "application/xml", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad import status = %d", resp.StatusCode)
	}
}

func TestMoreErrorPaths(t *testing.T) {
	_, srv := testServer(t)
	// Broken JSON bodies.
	for _, ep := range []struct{ method, path string }{
		{http.MethodPost, "/api/entries"},
		{http.MethodPut, "/api/entries/1"},
	} {
		req, _ := http.NewRequest(ep.method, srv.URL+ep.path, strings.NewReader("{broken"))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s = %d", ep.method, ep.path, resp.StatusCode)
		}
	}
	// Update of unknown entry.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/api/entries/9999",
		jsonBody(t, corpus.Entry{Domain: "planetmath.org", Title: "x"}))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("update unknown = %d", resp.StatusCode)
	}
	// Delete of unknown entry.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/entries/9999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown = %d", resp.StatusCode)
	}
	// Linked rendering of unknown entry.
	resp, err = http.Get(srv.URL + "/api/entries/9999/linked")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("linked unknown = %d", resp.StatusCode)
	}
	// Policy on unknown entry.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/api/entries/9999/policy",
		strings.NewReader("forbid x"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("policy unknown = %d", resp.StatusCode)
	}
	// Malformed form body on /api/link.
	resp, err = http.Post(srv.URL+"/api/link", "application/x-www-form-urlencoded",
		strings.NewReader("%zz=bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad form = %d", resp.StatusCode)
	}
}

// A handler built in the follower role is a read replica's HTTP surface:
// every mutating route must be rejected with 403 and a body naming the
// leader, while the read routes keep serving. Without the gate a follower
// would accept writes straight into its engine and silently diverge from
// the replication stream.
func TestNotPrimaryGatesMutatingRoutes(t *testing.T) {
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AddDomain(corpus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	e := corpus.Entry{Domain: "planetmath.org", Title: "graph", Classes: []string{"05C99"}}
	id, err := engine.AddEntry(&e)
	if err != nil {
		t.Fatal(err)
	}
	// A follower without peers, never started: the gate only asks it who
	// the leader is.
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	node, err := replication.NewNode(replication.NodeConfig{
		Store: store,
		Dial: func(addr string) (replication.Peer, error) {
			return client.New(addr, time.Second), nil
		},
		InitialLeader: "10.0.0.1:7070",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	svc := service.New(engine)
	svc.Node = node
	srv := httptest.NewServer(New(svc, nil))
	t.Cleanup(srv.Close)

	mutating := []struct{ method, path, body string }{
		{http.MethodPost, "/api/entries", `{"domain":"planetmath.org","title":"rogue"}`},
		{http.MethodPut, "/api/entries/" + strconv.FormatInt(id, 10), `{"title":"rogue"}`},
		{http.MethodDelete, "/api/entries/" + strconv.FormatInt(id, 10), ""},
		{http.MethodPut, "/api/entries/" + strconv.FormatInt(id, 10) + "/policy", "forbid x"},
		{http.MethodPost, "/api/relink", ""},
		{http.MethodPost, "/api/import", "<records/>"},
	}
	for _, m := range mutating {
		req, _ := http.NewRequest(m.method, srv.URL+m.path, strings.NewReader(m.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s = %d, want 403", m.method, m.path, resp.StatusCode)
		}
		var body map[string]string
		decode(t, resp, &body)
		if body["leader"] != "10.0.0.1:7070" {
			t.Errorf("%s %s leader = %q", m.method, m.path, body["leader"])
		}
	}
	if n := engine.NumEntries(); n != 1 {
		t.Fatalf("entries after rejected writes = %d, want 1", n)
	}

	// The read surface stays open: entry fetch, cached linking, stats, and
	// on-demand free-text linking (read-only despite being a POST).
	for _, path := range []string{
		"/api/entries/" + strconv.FormatInt(id, 10),
		"/api/entries/" + strconv.FormatInt(id, 10) + "/linked",
		"/api/invalidated",
		"/api/stats",
		"/metrics",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s on replica = %d, want 200", path, resp.StatusCode)
		}
	}
	resp := postJSON(t, srv.URL+"/api/link", map[string]interface{}{"text": "a graph"})
	var res core.Result
	decode(t, resp, &res)
	if resp.StatusCode != http.StatusOK || len(res.Links) == 0 {
		t.Errorf("POST /api/link on replica = %d links %v", resp.StatusCode, res.Links)
	}
}

// An engine stopped by a refused write answers every route with one code,
// "failed", under 500, and /readyz reports it not ready.
func TestStoppedEngineOverHTTP(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{Scheme: classification.SampleMSC(10), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	st := health.NewState()
	st.AddCheck("engine", engine.Failed)
	st.SetReady(true)
	srv := httptest.NewServer(New(service.New(engine), st))
	t.Cleanup(srv.Close)
	readyz := func() int {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz before = %d", code)
	}
	if err := engine.AddDomain(corpus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}"}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/api/entries", `{"domain":"planetmath.org","title":"refused"}`}, // stops the engine
		{http.MethodGet, "/api/entries/1", ""},
		{http.MethodPost, "/api/relink", ""},
		{http.MethodPost, "/api/link", `{"text":"a planar graph"}`},
		{http.MethodGet, "/api/invalidated", ""},
	} {
		r, err := http.NewRequest(req.method, srv.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Code string }
		decode(t, resp, &body)
		if resp.StatusCode != http.StatusInternalServerError || body.Code != wire.CodeFailed {
			t.Errorf("%s %s: %d, code %q; want 500, %q", req.method, req.path, resp.StatusCode, body.Code, wire.CodeFailed)
		}
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz of a stopped engine = %d, want 503", code)
	}
}
