package noosphere

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nnexus"
	"nnexus/internal/corpus"
	"nnexus/internal/storage"
)

// testEngine boots a node the way cmd/noosphere does: through the facade,
// with the wiki's domain configured.
func testEngine(t *testing.T, dataDir string) *nnexus.Engine {
	t.Helper()
	engine, err := nnexus.New(nnexus.Config{
		Scheme:  nnexus.SampleMSC(10),
		LaTeX:   true, // Noosphere entries are TeX
		DataDir: dataDir,
		Domains: []nnexus.Domain{{
			Name: "planetmath.org", URLTemplate: "/entry/{id}", Scheme: "msc", Priority: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	return engine
}

// memStore is a revision store that persists nothing.
func memStore(t *testing.T) *storage.Store {
	t.Helper()
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func testWiki(t *testing.T) (*nnexus.Engine, *Wiki, *httptest.Server) {
	t.Helper()
	engine := testEngine(t, "")
	w, err := New(engine, "planetmath.org", memStore(t))
	if err != nil {
		t.Fatal(err)
	}
	w.now = func() time.Time { return time.Unix(1136239445, 0) }
	srv := httptest.NewServer(w)
	t.Cleanup(srv.Close)
	return engine, w, srv
}

func postForm(t *testing.T, url string, form map[string]string) *http.Response {
	t.Helper()
	values := make(map[string][]string, len(form))
	for k, v := range form {
		values[k] = []string{v}
	}
	resp, err := http.PostForm(url, values)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func body(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestNewRequiresDomain(t *testing.T) {
	if _, err := New(testEngine(t, ""), "ghost.example", memStore(t)); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestCreateViewAutoLinked(t *testing.T) {
	_, _, srv := testWiki(t)
	// Create the target entry first.
	resp := postForm(t, srv.URL+"/entry", map[string]string{
		"title":   "planar graph",
		"classes": "05C10",
		"author":  "alice",
		"body":    `A \emph{planar graph} embeds in the plane.`,
	})
	if resp.StatusCode != http.StatusOK { // after redirect
		t.Fatalf("status = %d", resp.StatusCode)
	}
	page := body(t, resp)
	if !strings.Contains(page, "planar graph") {
		t.Fatalf("view page = %q", page)
	}
	// Create a second entry invoking the first; its view must auto-link.
	resp = postForm(t, srv.URL+"/entry", map[string]string{
		"title":   "four colour theorem",
		"classes": "05C10",
		"author":  "bob",
		"body":    `Every \emph{planar graph} is four-colourable.`,
	})
	page = body(t, resp)
	if !strings.Contains(page, `<a href="/entry/1"`) {
		t.Fatalf("auto-link missing in view: %q", page)
	}
	// LaTeX command must not leak into the rendering.
	if strings.Contains(page, `\emph`) {
		t.Errorf("TeX leaked: %q", page)
	}
}

func TestIndexListsEntries(t *testing.T) {
	_, w, srv := testWiki(t)
	for _, title := range []string{"zeta function", "abelian group"} {
		if _, err := w.Save(0, "alice", "new", &corpus.Entry{Title: title}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	page := body(t, resp)
	// Alphabetical order.
	a := strings.Index(page, "abelian group")
	z := strings.Index(page, "zeta function")
	if a < 0 || z < 0 || a > z {
		t.Errorf("index page = %q", page)
	}
	if !strings.Contains(page, "2 entries") {
		t.Errorf("count missing: %q", page)
	}
}

func TestEditUpdatesAndRecordsRevisions(t *testing.T) {
	engine, w, srv := testWiki(t)
	id, err := w.Save(0, "alice", "created", &corpus.Entry{
		Title: "group", Classes: []string{"05C99"}, Body: "first version",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postForm(t, srv.URL+"/entry/1", map[string]string{
		"title":   "group",
		"classes": "05C99",
		"body":    "second version",
		"author":  "bob",
		"comment": "rewrite",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	entry, _ := engine.Entry(id)
	if entry.Body != "second version" {
		t.Errorf("body = %q", entry.Body)
	}
	revs := w.Revisions(id)
	if len(revs) != 2 {
		t.Fatalf("revisions = %+v", revs)
	}
	if revs[0].Author != "alice" || revs[1].Author != "bob" || revs[1].Comment != "rewrite" {
		t.Errorf("revisions = %+v", revs)
	}
	if revs[1].Number != 2 {
		t.Errorf("revision number = %d", revs[1].Number)
	}
	// History page shows both.
	histResp, err := http.Get(srv.URL + "/entry/1/history")
	if err != nil {
		t.Fatal(err)
	}
	hist := body(t, histResp)
	if !strings.Contains(hist, "alice") || !strings.Contains(hist, "bob") {
		t.Errorf("history = %q", hist)
	}
}

func TestEditPreservesPolicy(t *testing.T) {
	engine, w, srv := testWiki(t)
	if _, err := w.Save(0, "alice", "", &corpus.Entry{
		Title: "even number", Concepts: []string{"even"},
		Classes: []string{"11A51"}, Policy: "forbid even\nallow even from 11-XX",
	}); err != nil {
		t.Fatal(err)
	}
	// Edit without touching the policy field... the form posts it back, but
	// programmatic saves may omit it.
	resp := postForm(t, srv.URL+"/entry/1", map[string]string{
		"title": "even number", "concepts": "even", "classes": "11A51",
		"body": "updated", "author": "bob",
	})
	resp.Body.Close()
	entry, _ := engine.Entry(1)
	if !strings.Contains(entry.Policy, "forbid even") {
		t.Errorf("policy lost on edit: %q", entry.Policy)
	}
}

func TestSourceAndEditForm(t *testing.T) {
	_, w, srv := testWiki(t)
	if _, err := w.Save(0, "alice", "", &corpus.Entry{
		Title: "torus", Body: `a \emph{torus} body`, Classes: []string{"51A05"},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/entry/1/source")
	if err != nil {
		t.Fatal(err)
	}
	src := body(t, resp)
	if !strings.Contains(src, `\emph{torus}`) {
		t.Errorf("source = %q", src)
	}
	formResp, err := http.Get(srv.URL + "/entry/1/edit")
	if err != nil {
		t.Fatal(err)
	}
	form := body(t, formResp)
	if !strings.Contains(form, `action="/entry/1"`) || !strings.Contains(form, "torus") {
		t.Errorf("edit form = %q", form)
	}
	newForm, err := http.Get(srv.URL + "/new")
	if err != nil {
		t.Fatal(err)
	}
	if page := body(t, newForm); !strings.Contains(page, `action="/entry"`) {
		t.Errorf("new form = %q", page)
	}
}

func TestErrors(t *testing.T) {
	_, _, srv := testWiki(t)
	for _, path := range []string{"/entry/999", "/entry/notanumber", "/entry/999/history", "/entry/999/edit"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s returned 200", path)
		}
	}
	// Saving a labelless entry fails.
	resp := postForm(t, srv.URL+"/entry", map[string]string{"author": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("labelless save = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad policy rejected.
	resp = postForm(t, srv.URL+"/entry", map[string]string{
		"title": "x", "policy": "frobnicate"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad policy save = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestViewInvalidatesAfterNewConcept(t *testing.T) {
	_, w, srv := testWiki(t)
	if _, err := w.Save(0, "alice", "", &corpus.Entry{
		Title: "outer", Body: "mentions a hyperloop", Classes: []string{"05C10"},
	}); err != nil {
		t.Fatal(err)
	}
	resp, _ := http.Get(srv.URL + "/entry/1")
	first := body(t, resp)
	if strings.Contains(first, `<a href="/entry/2"`) {
		t.Fatalf("premature link: %q", first)
	}
	if _, err := w.Save(0, "bob", "", &corpus.Entry{
		Title: "hyperloop", Classes: []string{"05C10"},
	}); err != nil {
		t.Fatal(err)
	}
	resp, _ = http.Get(srv.URL + "/entry/1")
	second := body(t, resp)
	if !strings.Contains(second, `<a href="/entry/2"`) {
		t.Errorf("stale rendering after new concept: %q", second)
	}
}

func TestURLValuesHelper(t *testing.T) {
	// Sanity: PostForm builds what the handlers parse.
	v := url.Values{"title": {"x"}}
	if v.Get("title") != "x" {
		t.Fatal("url.Values misbehaving")
	}
}

// Revision history persists across wiki (and engine) restarts.
func TestRevisionsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*nnexus.Engine, *storage.Store, *Wiki) {
		t.Helper()
		engine := testEngine(t, dir)
		store, err := storage.Open(filepath.Join(dir, "revisions"))
		if err != nil {
			t.Fatal(err)
		}
		w, err := New(engine, "planetmath.org", store)
		if err != nil {
			t.Fatal(err)
		}
		return engine, store, w
	}
	engine, store, w := open()
	id, err := w.Save(0, "alice", "created", &corpus.Entry{Title: "group", Body: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Save(id, "bob", "rewrote", &corpus.Entry{Title: "group", Body: "v2"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}

	_, store2, w2 := open()
	defer store2.Close()
	revs := w2.Revisions(id)
	if len(revs) != 2 {
		t.Fatalf("revisions after restart = %+v", revs)
	}
	if revs[0].Author != "alice" || revs[1].Author != "bob" || revs[1].Body != "v2" {
		t.Errorf("revisions = %+v", revs)
	}
	// New revisions continue the numbering.
	if _, err := w2.Save(id, "carol", "more", &corpus.Entry{Title: "group", Body: "v3"}); err != nil {
		t.Fatal(err)
	}
	if revs := w2.Revisions(id); len(revs) != 3 || revs[2].Number != 3 {
		t.Errorf("revisions = %+v", revs)
	}
}
