// Package noosphere implements a minimal collaborative online encyclopedia
// in the style of Noosphere, the platform of PlanetMath whose automatic
// linker NNexus generalizes (paper §1.4: "NNexus is an abstraction and
// generalization of the automatic linking component of the Noosphere
// system"). It supplies the substrate around the linker that the paper
// presumes:
//
//   - entries authored in LaTeX, with titles, defined concepts, synonyms,
//     and MSC classifications;
//   - revision history with author attribution;
//   - rendering through the NNexus pipeline with the rendered-output cache,
//     so every view is fully auto-linked;
//   - author-editable linking policies.
//
// The wiki is an http.Handler; mount it next to the httpapi or standalone.
package noosphere

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nnexus"
	"nnexus/internal/corpus"
	"nnexus/internal/storage"
)

// Revision is one saved version of an entry.
type Revision struct {
	Number   int
	Author   string
	Saved    time.Time
	Title    string
	Body     string
	Concepts []string
	Classes  []string
	Comment  string
}

// revisionsTable is the storage table revision history persists to.
const revisionsTable = "noosphere_revisions"

// Wiki is the collaborative encyclopedia application.
type Wiki struct {
	engine *nnexus.Engine
	domain string
	mux    *http.ServeMux
	store  *storage.Store // revision history; a store of the wiki's own

	mu        sync.RWMutex
	revisions map[int64][]Revision
	// now is a clock hook for tests.
	now func() time.Time
}

// New builds a wiki over a node. Entries created through the wiki are
// registered under the given domain, which must already exist in the engine.
// Revision history is written to revisions — a store of the wiki's own, not
// the engine's; one opened without a directory keeps it in memory — and
// reloaded from it here.
func New(engine *nnexus.Engine, domain string, revisions *storage.Store) (*Wiki, error) {
	if _, ok := engine.Domain(domain); !ok {
		return nil, fmt.Errorf("noosphere: domain %q not registered", domain)
	}
	w := &Wiki{
		engine:    engine,
		domain:    domain,
		mux:       http.NewServeMux(),
		store:     revisions,
		revisions: make(map[int64][]Revision),
		now:       time.Now,
	}
	if err := w.loadRevisions(); err != nil {
		return nil, err
	}
	w.mux.HandleFunc("GET /{$}", w.index)
	w.mux.HandleFunc("GET /entry/{id}", w.view)
	w.mux.HandleFunc("GET /entry/{id}/source", w.source)
	w.mux.HandleFunc("GET /entry/{id}/history", w.history)
	w.mux.HandleFunc("GET /new", w.editForm)
	w.mux.HandleFunc("GET /entry/{id}/edit", w.editForm)
	w.mux.HandleFunc("POST /entry", w.save)
	w.mux.HandleFunc("POST /entry/{id}", w.save)
	return w, nil
}

// ServeHTTP implements http.Handler.
func (w *Wiki) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

// Revisions returns the saved revisions of an entry, oldest first.
func (w *Wiki) Revisions(id int64) []Revision {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]Revision, len(w.revisions[id]))
	copy(out, w.revisions[id])
	return out
}

// Save creates (id == 0) or updates an entry, recording a revision. It is
// the programmatic core behind the POST handlers.
func (w *Wiki) Save(id int64, author, comment string, entry *corpus.Entry) (int64, error) {
	entry.Domain = w.domain
	var err error
	if id == 0 {
		id, err = w.engine.AddEntry(entry)
	} else {
		entry.ID = id
		// Preserve the existing policy unless the caller set one.
		if entry.Policy == "" {
			if old, ok := w.engine.Entry(id); ok {
				entry.Policy = old.Policy
			}
		}
		err = w.engine.UpdateEntry(entry)
	}
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	revs := w.revisions[id]
	rev := Revision{
		Number:   len(revs) + 1,
		Author:   author,
		Saved:    w.now(),
		Title:    entry.Title,
		Body:     entry.Body,
		Concepts: append([]string(nil), entry.Concepts...),
		Classes:  append([]string(nil), entry.Classes...),
		Comment:  comment,
	}
	w.revisions[id] = append(revs, rev)
	persistErr := w.persistRevision(id, rev)
	w.mu.Unlock()
	if persistErr != nil {
		return id, fmt.Errorf("noosphere: persist revision: %w", persistErr)
	}
	return id, nil
}

// persistRevision writes one revision record (caller holds w.mu).
func (w *Wiki) persistRevision(id int64, rev Revision) error {
	data, err := json.Marshal(rev)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%016d/%08d", id, rev.Number)
	return w.store.Put(revisionsTable, key, data)
}

// loadRevisions restores revision history from the store.
func (w *Wiki) loadRevisions() error {
	var loadErr error
	w.store.Scan(revisionsTable, func(key string, value []byte) bool {
		var id int64
		var num int
		if _, err := fmt.Sscanf(key, "%d/%d", &id, &num); err != nil {
			loadErr = fmt.Errorf("noosphere: bad revision key %q", key)
			return false
		}
		var rev Revision
		if err := json.Unmarshal(value, &rev); err != nil {
			loadErr = fmt.Errorf("noosphere: decode revision %q: %w", key, err)
			return false
		}
		w.revisions[id] = append(w.revisions[id], rev)
		return true
	})
	return loadErr
}

// --- HTTP handlers ---

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}} — Noosphere</title></head>
<body>
<p><a href="/">index</a> · <a href="/new">new entry</a></p>
<h1>{{.Title}}</h1>
{{.Body}}
</body></html>
`))

func (w *Wiki) renderPage(rw http.ResponseWriter, title string, body template.HTML) {
	rw.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = pageTmpl.Execute(rw, struct {
		Title string
		Body  template.HTML
	}{title, body})
}

func (w *Wiki) index(rw http.ResponseWriter, r *http.Request) {
	ids := w.engine.Entries()
	type row struct {
		ID    int64
		Title string
	}
	rows := make([]row, 0, len(ids))
	for _, id := range ids {
		if e, ok := w.engine.Entry(id); ok && e.Domain == w.domain {
			rows = append(rows, row{id, e.Title})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Title < rows[j].Title })
	var b strings.Builder
	fmt.Fprintf(&b, "<p>%d entries, %d concepts.</p><ul>", len(rows), w.engine.NumConcepts())
	for _, r := range rows {
		fmt.Fprintf(&b, `<li><a href="/entry/%d">%s</a></li>`, r.ID, template.HTMLEscapeString(r.Title))
	}
	b.WriteString("</ul>")
	w.renderPage(rw, "Encyclopedia", template.HTML(b.String()))
}

func (w *Wiki) view(rw http.ResponseWriter, r *http.Request) {
	id, entry, ok := w.lookup(rw, r)
	if !ok {
		return
	}
	res, cached, err := w.engine.LinkEntryCached(id)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	var b strings.Builder
	// The linked body is engine-produced HTML over author text; the
	// anchors are ours, the rest was escaped at save time.
	fmt.Fprintf(&b, "<div class=%q>%s</div>", "entry", res.Output)
	fmt.Fprintf(&b, `<p><i>%d links</i> (cache %s) · <a href="/entry/%d/edit">edit</a> · <a href="/entry/%d/history">history</a> · <a href="/entry/%d/source">source</a></p>`,
		len(res.Links), map[bool]string{true: "hit", false: "miss"}[cached], id, id, id)
	if len(entry.Classes) > 0 {
		fmt.Fprintf(&b, "<p>MSC: %s</p>", template.HTMLEscapeString(strings.Join(entry.Classes, ", ")))
	}
	w.renderPage(rw, entry.Title, template.HTML(b.String()))
}

func (w *Wiki) source(rw http.ResponseWriter, r *http.Request) {
	_, entry, ok := w.lookup(rw, r)
	if !ok {
		return
	}
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(rw, entry.Body)
}

func (w *Wiki) history(rw http.ResponseWriter, r *http.Request) {
	id, entry, ok := w.lookup(rw, r)
	if !ok {
		return
	}
	var b strings.Builder
	b.WriteString("<ol>")
	for _, rev := range w.Revisions(id) {
		fmt.Fprintf(&b, "<li>r%d by %s at %s — %s</li>",
			rev.Number,
			template.HTMLEscapeString(rev.Author),
			rev.Saved.UTC().Format(time.RFC3339),
			template.HTMLEscapeString(rev.Comment))
	}
	b.WriteString("</ol>")
	w.renderPage(rw, "History of "+entry.Title, template.HTML(b.String()))
}

var editTmpl = template.Must(template.New("edit").Parse(`
<form method="POST" action="{{.Action}}">
<p>title: <input name="title" value="{{.Title}}" size="60"></p>
<p>defines (comma-separated): <input name="concepts" value="{{.Concepts}}" size="60"></p>
<p>MSC classes (comma-separated): <input name="classes" value="{{.Classes}}" size="40"></p>
<p><textarea name="body" rows="14" cols="80">{{.Body}}</textarea></p>
<p>linking policy:<br><textarea name="policy" rows="3" cols="80">{{.Policy}}</textarea></p>
<p>author: <input name="author" value=""> comment: <input name="comment" size="40"></p>
<p><input type="submit" value="Save"></p>
</form>`))

func (w *Wiki) editForm(rw http.ResponseWriter, r *http.Request) {
	data := struct {
		Action, Title, Concepts, Classes, Body, Policy string
	}{Action: "/entry"}
	title := "New entry"
	if idStr := r.PathValue("id"); idStr != "" {
		id, entry, ok := w.lookup(rw, r)
		if !ok {
			return
		}
		data.Action = "/entry/" + strconv.FormatInt(id, 10)
		data.Title = entry.Title
		data.Concepts = strings.Join(entry.Concepts, ", ")
		data.Classes = strings.Join(entry.Classes, ", ")
		data.Body = entry.Body
		data.Policy = entry.Policy
		title = "Edit " + entry.Title
	}
	var b strings.Builder
	_ = editTmpl.Execute(&b, data)
	w.renderPage(rw, title, template.HTML(b.String()))
}

func (w *Wiki) save(rw http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	var id int64
	if idStr := r.PathValue("id"); idStr != "" {
		var err error
		id, err = strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			http.Error(rw, "bad entry id", http.StatusBadRequest)
			return
		}
	}
	entry := &corpus.Entry{
		Title:    strings.TrimSpace(r.PostFormValue("title")),
		Concepts: splitList(r.PostFormValue("concepts")),
		Classes:  splitList(r.PostFormValue("classes")),
		Body:     r.PostFormValue("body"),
		Policy:   strings.TrimSpace(r.PostFormValue("policy")),
	}
	author := strings.TrimSpace(r.PostFormValue("author"))
	if author == "" {
		author = "anonymous"
	}
	newID, err := w.Save(id, author, strings.TrimSpace(r.PostFormValue("comment")), entry)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(rw, r, "/entry/"+strconv.FormatInt(newID, 10), http.StatusSeeOther)
}

func (w *Wiki) lookup(rw http.ResponseWriter, r *http.Request) (int64, *corpus.Entry, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(rw, "bad entry id", http.StatusBadRequest)
		return 0, nil, false
	}
	entry, ok := w.engine.Entry(id)
	if !ok || entry.Domain != w.domain {
		http.Error(rw, "no such entry", http.StatusNotFound)
		return 0, nil, false
	}
	return id, entry, true
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
