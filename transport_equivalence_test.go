package nnexus_test

// The serving-layer twin of TestEntryPointEquivalence and
// FuzzMaintenanceEquivalence: one table of scenarios, each driven through
// the three doors to an engine — Server.Handle in process, a real socket
// (Serve + the client), and the HTTP API (HTTPHandler) — on identically
// prepared nodes. Every door must report the same typed outcome
// (overloaded, rateLimited, quotaExceeded, notPrimary + leader,
// quorumUnavailable, ok)
// and leave the same engine state behind, because all three compose the
// request pipeline of internal/service.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nnexus"
	"nnexus/internal/client"
	"nnexus/internal/service"
	"nnexus/internal/wire"
)

// node is one engine with all three doors open.
type node struct {
	engine *nnexus.Engine
	srv    *nnexus.Server
	addr   string
	http   *httptest.Server
}

// openNode builds an engine from cfg and serves it on a socket and over
// HTTP. Whatever gates the node — tenants, role, quorum — is in cfg, once.
func openNode(t *testing.T, cfg nnexus.Config) *node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = nnexus.SampleMSC(10)
	if len(cfg.ClusterPeers) > 0 {
		cfg.AdvertiseAddr = ln.Addr().String()
	}
	engine, err := nnexus.New(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	srv, addr, err := engine.ServeListener(ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(engine.HTTPHandler())
	t.Cleanup(hs.Close)
	return &node{engine: engine, srv: srv, addr: addr, http: hs}
}

// seed registers the test domain and stores entries directly in the engine,
// so no door's token bucket or quorum is touched by the preparation.
func (n *node) seed(t *testing.T, entries ...nnexus.Entry) {
	t.Helper()
	for _, d := range []nnexus.Domain{
		{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1},
		{Name: "wikipedia.org", URLTemplate: "http://wp/{id}", Scheme: "msc", Priority: 2},
	} {
		if err := n.engine.AddDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := range entries {
		e := entries[i]
		if _, err := n.engine.AddEntry(&e); err != nil {
			t.Fatal(err)
		}
	}
}

// state is everything a request could have changed, as one comparable
// string: every entry, the invalidation queue, each corpus's usage, and a
// probe link whose output moves with the linking policies.
func (n *node) state(t *testing.T) string {
	t.Helper()
	var st struct {
		Entries     []*nnexus.Entry
		Invalidated []int64
		Usage       map[string][2]int64
		Probe       string
	}
	for _, id := range n.engine.Entries() {
		e, _ := n.engine.Entry(id)
		st.Entries = append(st.Entries, e)
	}
	st.Invalidated = n.engine.Invalidated()
	st.Usage = map[string][2]int64{}
	for _, c := range n.engine.Corpora() {
		entries, bytes := n.engine.CorpusUsage(c)
		st.Usage[c] = [2]int64{entries, bytes}
	}
	res, err := n.engine.LinkText("an even planar graph", nnexus.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Probe = res.Output
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func (n *node) fencedRequests() float64 {
	v, _ := n.engine.TelemetrySnapshot()["nnexus_fenced_requests_total"].(float64)
	return v
}

// request is one operation, named by its wire method; the HTTP door drives
// the route that names that method as its twin (addEntries is POST
// /api/import there).
type request struct {
	method  string
	corpus  string
	targets []string
	text    string
	id      int64
	entry   *nnexus.Entry
	entries []*nnexus.Entry
	policy  string
	texts   []string
}

// copyEntries returns r with copies of its entries, so that each door starts
// from the scenario's: a write sets the ID and corpus of the entries it is
// handed, as Engine.AddEntry does.
func (r request) copyEntries() request {
	if r.entry != nil {
		e := *r.entry
		r.entry = &e
	}
	entries := make([]*nnexus.Entry, len(r.entries))
	for i, e := range r.entries {
		copied := *e
		entries[i] = &copied
	}
	r.entries = entries
	return r
}

// outcome is what a door reported: "ok", a typed wire code, or "error" for
// an untyped failure; the leader hint of a notPrimary; a link request's
// label → target map.
type outcome struct {
	Code   string
	Leader string
	Links  string
}

func linkSummary(links []wire.LinkInfo) string {
	var b strings.Builder
	for _, l := range links {
		fmt.Fprintf(&b, "%s→%d ", l.Label, l.Target)
	}
	return b.String()
}

// batchSummary is each result's output and its linkSummary, in order.
func batchSummary(batch []*wire.Linked) string {
	var b strings.Builder
	for _, l := range batch {
		fmt.Fprintf(&b, "%s: %s\n", l.Output, linkSummary(l.Links))
	}
	return b.String()
}

type door struct {
	name string
	do   func(t *testing.T, n *node, r request) outcome
}

var doors = []door{
	{"handle", func(t *testing.T, n *node, r request) outcome {
		resp := n.srv.Handle(&wire.Request{Method: r.method, Seq: 1, Corpus: r.corpus, Targets: r.targets,
			Text: r.text, Object: r.id, Policy: r.policy, Entry: r.entry, Entries: r.entries, Texts: r.texts})
		out := wireOutcome(resp)
		if r.method == wire.MethodRelinkBatch && resp.IsOK() {
			out.Links = fmt.Sprint(resp.Objects)
		}
		return out
	}},
	{"socket", func(t *testing.T, n *node, r request) outcome {
		c, err := nnexus.Dial(n.addr, nnexus.WithMaxRetries(0), nnexus.WithCallTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out outcome
		switch r.method {
		case wire.MethodLinkText:
			var res *wire.Linked
			if res, err = c.LinkTextIn(r.corpus, r.targets, r.text, nil, "", "", ""); err == nil {
				out.Links = linkSummary(res.Links)
			}
		case wire.MethodGetEntry:
			_, err = c.GetEntry(r.id)
		case wire.MethodLinkEntry:
			_, err = c.LinkEntry(r.id, "", "")
		case wire.MethodInvalidated:
			_, err = c.Invalidated()
		case wire.MethodStats:
			_, err = c.Stats()
		case wire.MethodRemoveEntry:
			err = c.RemoveEntry(r.id)
		case wire.MethodSetPolicy:
			err = c.SetPolicy(r.id, r.policy)
		case wire.MethodRelink:
			_, err = c.Relink()
		case wire.MethodLinkBatch:
			var res []*wire.Linked
			if res, err = c.LinkBatch(r.texts, nil, "", "", ""); err == nil {
				out.Links = batchSummary(res)
			}
		case wire.MethodRelinkBatch:
			var ids []int64
			if ids, err = c.RelinkBatch(nil); err == nil {
				out.Links = fmt.Sprint(ids)
			}
		case wire.MethodAddEntry:
			if r.corpus != "" {
				// The client sends no request corpus beside the entry's;
				// speak the protocol on a bare connection.
				return wireOutcome(rawCall(t, n.addr, &wire.Request{Method: r.method, Seq: 1,
					Corpus: r.corpus, Entry: r.entry}))
			}
			_, err = c.AddEntry(r.entry)
		case wire.MethodUpdateEntry:
			err = c.UpdateEntry(r.entry)
		case wire.MethodAddEntries:
			if len(r.entries) == 0 {
				// The client never sends an empty batch; speak the
				// protocol on a bare connection.
				return wireOutcome(rawCall(t, n.addr, &wire.Request{Method: r.method, Seq: 1}))
			}
			_, err = c.AddEntries(r.entries)
		default:
			t.Fatalf("socket door: no client call for %s", r.method)
		}
		out.Code = "ok"
		var se *client.ServerError
		switch {
		case errors.As(err, &se):
			out.Code, out.Leader = se.Code, se.Leader
			if out.Code == "" {
				out.Code = "error"
			}
		case err != nil:
			t.Fatalf("socket door: %s: %v", r.method, err)
		}
		return out
	}},
	{"http", func(t *testing.T, n *node, r request) outcome {
		entryPath := "/api/entries/" + strconv.FormatInt(r.id, 10)
		var (
			verb, path = http.MethodGet, ""
			body       string
		)
		switch r.method {
		case wire.MethodLinkText:
			b, _ := json.Marshal(map[string]interface{}{"text": r.text, "corpus": r.corpus, "targets": r.targets})
			verb, path, body = http.MethodPost, "/api/link", string(b)
		case wire.MethodGetEntry:
			path = entryPath
		case wire.MethodLinkEntry:
			path = entryPath + "/linked"
		case wire.MethodInvalidated:
			path = "/api/invalidated"
		case wire.MethodStats:
			path = "/api/stats"
		case wire.MethodRemoveEntry:
			verb, path = http.MethodDelete, entryPath
		case wire.MethodSetPolicy:
			verb, path, body = http.MethodPut, entryPath+"/policy", r.policy
		case wire.MethodRelink:
			verb, path = http.MethodPost, "/api/relink"
		case wire.MethodAddEntry:
			b, _ := json.Marshal(r.entry)
			verb, path, body = http.MethodPost, "/api/entries", string(b)
		case wire.MethodUpdateEntry:
			b, _ := json.Marshal(r.entry)
			verb, path, body = http.MethodPut, "/api/entries/"+strconv.FormatInt(r.entry.ID, 10), string(b)
		case wire.MethodAddEntries:
			var dump strings.Builder
			dump.WriteString(`<records domain="planetmath.org" scheme="msc">`)
			for i, e := range r.entries {
				fmt.Fprintf(&dump, `<record id="r%d"><title>%s</title><class>%s</class></record>`, i, e.Title, e.Classes[0])
			}
			dump.WriteString(`</records>`)
			verb, path, body = http.MethodPost, "/api/import", dump.String()
		default:
			t.Fatalf("http door: no route for %s", r.method)
		}
		req, err := http.NewRequest(verb, n.http.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply struct {
			Code   string `json:"code"`
			Leader string `json:"leader"`
			ID     int64  `json:"id"`
			// core.Link's JSON keys are wire.LinkInfo's field names.
			Links []wire.LinkInfo `json:"links"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("http door: %s %s: status %d, body: %v", verb, path, resp.StatusCode, err)
		}
		out := outcome{Code: reply.Code, Leader: reply.Leader}
		wantStatus := map[string]int{
			wire.CodeRateLimited: http.StatusTooManyRequests, wire.CodeQuotaExceeded: http.StatusForbidden,
			wire.CodeNotPrimary: http.StatusForbidden, wire.CodeQuorumUnavailable: http.StatusServiceUnavailable,
			wire.CodeOverloaded: http.StatusServiceUnavailable,
		}
		switch {
		case resp.StatusCode < 300:
			out.Code = "ok"
			out.Links = linkSummary(reply.Links)
		case reply.Code == "":
			out.Code = "error"
		case resp.StatusCode != wantStatus[reply.Code]:
			t.Errorf("http door: code %q answered with status %d, want %d", reply.Code, resp.StatusCode, wantStatus[reply.Code])
		}
		if (reply.Code == wire.CodeRateLimited || reply.Code == wire.CodeOverloaded) && resp.Header.Get("Retry-After") == "" {
			t.Errorf("http door: %s without Retry-After", reply.Code)
		}
		if r.method == wire.MethodAddEntry && reply.Code == wire.CodeQuorumUnavailable && reply.ID == 0 {
			t.Errorf("http door: a create that applied but missed its quorum lost its id")
		}
		return out
	}},
}

func wireOutcome(resp *wire.Response) outcome {
	out := outcome{Code: resp.Code, Leader: resp.Leader}
	switch {
	case resp.IsOK():
		out.Code = "ok"
		switch {
		case resp.Linked != nil:
			out.Links = linkSummary(resp.Linked.Links)
		case resp.Batch != nil:
			out.Links = batchSummary(resp.Batch)
		}
	case resp.Code == "":
		out.Code = "error"
	}
	return out
}

// rawCall performs one exchange of the XML protocol on a bare connection.
func rawCall(t *testing.T, addr string, req *wire.Request) *wire.Response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// scenario is one row: a way to prepare a node, a request, and what every
// door must answer. executes says whether the request is expected to run —
// a rejected one must leave the node exactly as it found it.
type scenario struct {
	name     string
	open     func(t *testing.T) *node
	req      request
	want     outcome
	executes bool
	// fenced says the rejection must count in nnexus_fenced_requests_total.
	fenced bool
	// check, when set, replaces comparing full states across doors, for the
	// one row whose doors differ by design.
	check func(t *testing.T, n *node)
	// skip names a door that cannot express the request.
	skip string
}

var (
	planar = nnexus.Entry{Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"}}
	even   = nnexus.Entry{Domain: "planetmath.org", Title: "even", Classes: []string{"11A51"},
		Body: "an even planar graph"}
)

func TestTransportEquivalence(t *testing.T) {
	var rows []scenario

	// A saturated bucket rejects every tenant-attributable method alike,
	// read or write, before it runs.
	saturated := func(t *testing.T) *node {
		reg := nnexus.NewTenantRegistry(nnexus.TenantConfig{
			Default: &nnexus.TenantPolicy{RatePerSec: 0.001, Burst: 1},
		})
		n := openNode(t, nnexus.Config{Tenants: reg})
		n.seed(t, planar, even)
		if err := reg.Allow(nnexus.DefaultCorpusName); err != nil {
			t.Fatal(err)
		}
		return n
	}
	clientCalls := []request{
		{method: wire.MethodLinkText, text: "a planar graph"},
		{method: wire.MethodGetEntry, id: 1},
		{method: wire.MethodLinkEntry, id: 2},
		{method: wire.MethodInvalidated},
		{method: wire.MethodStats},
		{method: wire.MethodRemoveEntry, id: 1},
		{method: wire.MethodSetPolicy, id: 2, policy: "forbid even"},
		{method: wire.MethodRelink},
	}
	for _, r := range clientCalls {
		rows = append(rows, scenario{name: "saturated bucket/" + r.method, open: saturated, req: r,
			want: outcome{Code: wire.CodeRateLimited}})
	}

	// A node whose one in-flight slot is held — here by an HTTP request
	// whose body is still arriving — sheds every client call alike, read or
	// write, before it runs.
	busy := func(t *testing.T) *node {
		n := openNode(t, nnexus.Config{MaxActive: 1})
		n.seed(t, planar, even)
		body, sender := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := http.Post(n.http.URL+"/api/link", "application/json", body); err == nil {
				resp.Body.Close()
			}
		}()
		t.Cleanup(func() { sender.Close(); <-done })
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, _ := n.engine.TelemetrySnapshot()["nnexus_http_in_flight_requests"].(float64); v > 0 {
				return n
			}
			if time.Now().After(deadline) {
				t.Fatal("the held HTTP request never took its slot")
			}
		}
	}
	for _, r := range clientCalls {
		rows = append(rows, scenario{name: "slot held/" + r.method, open: busy, req: r,
			want: outcome{Code: wire.CodeOverloaded}})
	}

	// Entry quotas charge a write by the engine's replace-versus-new rule.
	boxed := func(t *testing.T) *node {
		reg := nnexus.NewTenantRegistry(nnexus.TenantConfig{Corpora: map[string]*nnexus.TenantPolicy{
			"boxed": {MaxEntries: 2},
		}})
		n := openNode(t, nnexus.Config{Tenants: reg})
		inBox, outside := planar, even
		inBox.Corpus, outside.Corpus = "boxed", "free"
		second := inBox
		second.Title = "connected graph"
		n.seed(t, inBox, second, outside) // IDs 1, 2 in the full corpus; 3 outside it
		return n
	}
	rows = append(rows,
		scenario{name: "entry quota/create", open: boxed, want: outcome{Code: wire.CodeQuotaExceeded},
			req: request{method: wire.MethodAddEntry, entry: &nnexus.Entry{
				Corpus: "boxed", Domain: "planetmath.org", Title: "one too many", Classes: []string{"05C10"}}}},
		scenario{name: "entry quota/update", open: boxed, want: outcome{Code: "ok"}, executes: true,
			req: request{method: wire.MethodUpdateEntry, entry: &nnexus.Entry{
				ID: 1, Corpus: "boxed", Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"},
				Body: "a replacement inside a full corpus adds no entry"}}},
		scenario{name: "entry quota/cross-corpus move", open: boxed, want: outcome{Code: wire.CodeQuotaExceeded},
			req: request{method: wire.MethodUpdateEntry, entry: &nnexus.Entry{
				ID: 3, Corpus: "boxed", Domain: "planetmath.org", Title: "even", Classes: []string{"11A51"}}}},
		// A write is charged to the corpus it lands in: its entry's, whatever
		// corpus the request names.
		scenario{name: "entry quota/create naming the full corpus under another", open: boxed,
			want: outcome{Code: wire.CodeQuotaExceeded},
			req: request{method: wire.MethodAddEntry, corpus: "free", entry: &nnexus.Entry{
				Corpus: "boxed", Domain: "planetmath.org", Title: "one too many", Classes: []string{"05C10"}}}},
		scenario{name: "entry quota/create naming another corpus under the full one", open: boxed,
			want: outcome{Code: "ok"}, executes: true,
			req: request{method: wire.MethodAddEntry, corpus: "boxed", entry: &nnexus.Entry{
				Corpus: "free", Domain: "planetmath.org", Title: "room elsewhere", Classes: []string{"05C10"}}}},
		// The HTTP import files a dump into the default corpus: its records
		// name none.
		scenario{name: "entry quota/batch naming the full corpus", open: boxed, skip: "http",
			want: outcome{Code: wire.CodeQuotaExceeded},
			req: request{method: wire.MethodAddEntries, entries: []*nnexus.Entry{
				{Corpus: "boxed", Domain: "planetmath.org", Title: "first", Classes: []string{"05C10"}},
				{Corpus: "boxed", Domain: "planetmath.org", Title: "second", Classes: []string{"05C10"}},
				{Corpus: "boxed", Domain: "planetmath.org", Title: "third", Classes: []string{"05C10"}},
				{Corpus: "boxed", Domain: "planetmath.org", Title: "fourth", Classes: []string{"05C10"}},
				{Corpus: "boxed", Domain: "planetmath.org", Title: "fifth", Classes: []string{"05C10"}},
			}}},
	)
	// An import of 3 into room for 2 is refused on every door. What it
	// leaves behind differs by design — addEntries is admitted whole, the
	// HTTP import streams and is checked entry by entry — so the shared
	// guarantee is the quota itself.
	rows = append(rows, scenario{name: "entry quota/import of 3 into room for 2",
		open: func(t *testing.T) *node {
			reg := nnexus.NewTenantRegistry(nnexus.TenantConfig{Corpora: map[string]*nnexus.TenantPolicy{
				nnexus.DefaultCorpusName: {MaxEntries: 2},
			}})
			n := openNode(t, nnexus.Config{Tenants: reg})
			n.seed(t)
			return n
		},
		req: request{method: wire.MethodAddEntries, entries: []*nnexus.Entry{
			{Domain: "planetmath.org", Title: "first", Classes: []string{"05C10"}},
			{Domain: "planetmath.org", Title: "second", Classes: []string{"05C10"}},
			{Domain: "planetmath.org", Title: "third", Classes: []string{"05C10"}},
		}},
		want: outcome{Code: wire.CodeQuotaExceeded},
		check: func(t *testing.T, n *node) {
			if entries, _ := n.engine.CorpusUsage(nnexus.DefaultCorpusName); entries > 2 {
				t.Errorf("corpus holds %d entries past its quota of 2", entries)
			}
		},
	})

	// A batch through the client equals the engine's own batch call in
	// process, on a twin node. HTTP has no batch route.
	flagged := func(t *testing.T) *node {
		n := openNode(t, nnexus.Config{})
		n.seed(t, even, planar) // planar's label flags even, entry 1
		return n
	}
	texts := []string{"a planar graph", "an even planar graph", "nothing to link"}
	results, err := flagged(t).engine.LinkBatch(texts, nnexus.LinkOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	linked := make([]*wire.Linked, len(results))
	for i, res := range results {
		linked[i] = &wire.Linked{Output: res.Output}
		for _, l := range res.Links {
			linked[i].Links = append(linked[i].Links, wire.LinkInfo{Label: l.Label, Target: l.Target})
		}
	}
	relinked, err := flagged(t).engine.RelinkBatch(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var relinkedIDs []int64
	for id := range relinked {
		relinkedIDs = append(relinkedIDs, id)
	}
	slices.Sort(relinkedIDs)
	if len(relinkedIDs) == 0 {
		t.Fatal("in-process RelinkBatch found nothing flagged")
	}
	rows = append(rows,
		scenario{name: "batch/" + wire.MethodLinkBatch, open: flagged, skip: "http",
			req: request{method: wire.MethodLinkBatch, texts: texts}, want: outcome{Code: "ok", Links: batchSummary(linked)}},
		scenario{name: "batch/" + wire.MethodRelinkBatch, open: flagged, skip: "http", executes: true,
			req: request{method: wire.MethodRelinkBatch}, want: outcome{Code: "ok", Links: fmt.Sprint(relinkedIDs)}},
	)

	// A node that may not write redirects every mutating method to the
	// leader it knows, whether it was configured a follower or demoted by
	// an election (where the rejection also counts as a fenced request).
	leader := deadAddr(t)
	follower := func(t *testing.T) *node {
		return openNode(t, nnexus.Config{DataDir: t.TempDir(), FollowPrimary: leader})
	}
	demoted := func(t *testing.T) *node {
		n := openNode(t, nnexus.Config{DataDir: t.TempDir(), ReplicationPrimary: true,
			ClusterPeers: []string{leader, deadAddr(t)}, ElectionTimeout: time.Minute})
		if resp := n.srv.Handle(&wire.Request{Method: wire.MethodReplLead, Epoch: 99, Leader: leader}); !resp.IsOK() {
			t.Fatalf("replLead: %s", resp.Error)
		}
		if st := n.engine.Replication(); st.Election == nil || !st.Election.Fenced {
			t.Fatalf("node not fenced after a newer leader announced itself: %+v", st.Election)
		}
		return n
	}
	for _, r := range []request{
		{method: wire.MethodAddEntry, entry: &planar},
		{method: wire.MethodUpdateEntry, entry: &nnexus.Entry{ID: 1, Domain: "planetmath.org", Title: "rogue"}},
		{method: wire.MethodRemoveEntry, id: 1},
		{method: wire.MethodSetPolicy, id: 1, policy: "forbid even"},
		{method: wire.MethodRelink},
		{method: wire.MethodAddEntries}, // an empty import
	} {
		rows = append(rows,
			scenario{name: "static follower/" + r.method, open: follower, req: r,
				want: outcome{Code: wire.CodeNotPrimary, Leader: leader}},
			scenario{name: "demoted node/" + r.method, open: demoted, req: r,
				want: outcome{Code: wire.CodeNotPrimary, Leader: leader}, fenced: true})
	}

	// A write that cannot gather its quorum applied and says so.
	alone := func(t *testing.T) *node {
		n := openNode(t, nnexus.Config{DataDir: t.TempDir(), ReplicationPrimary: true,
			QuorumAcks: 1, QuorumTimeout: 150 * time.Millisecond})
		n.seed(t, planar, even)
		return n
	}
	for _, r := range []request{
		{method: wire.MethodAddEntry, entry: &nnexus.Entry{
			Domain: "planetmath.org", Title: "connected graph", Classes: []string{"05C40"}}},
		{method: wire.MethodUpdateEntry, entry: &nnexus.Entry{
			ID: 1, Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"}, Body: "updated"}},
		{method: wire.MethodRemoveEntry, id: 1},
		{method: wire.MethodSetPolicy, id: 2, policy: "forbid even"},
	} {
		rows = append(rows, scenario{name: "quorum of 1 with no follower/" + r.method, open: alone, req: r,
			want: outcome{Code: wire.CodeQuorumUnavailable}, executes: true})
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var first string
			for _, d := range doors {
				if d.name == row.skip {
					continue
				}
				n := row.open(t)
				before, fenced := n.state(t), n.fencedRequests()
				got := d.do(t, n, row.req.copyEntries())
				after := n.state(t)
				if got != row.want {
					t.Errorf("%s: outcome %+v, want %+v", d.name, got, row.want)
				}
				if !row.executes && row.check == nil && after != before {
					t.Errorf("%s: a rejected request changed the node:\nbefore %s\nafter  %s", d.name, before, after)
				}
				if row.executes && after == before {
					t.Errorf("%s: the request did not execute: state still %s", d.name, after)
				}
				if moved := n.fencedRequests() > fenced; moved != row.fenced {
					t.Errorf("%s: fenced-request count moved: %v, want %v", d.name, moved, row.fenced)
				}
				switch {
				case row.check != nil:
					row.check(t, n)
				case first == "":
					first = after
				case after != first:
					t.Errorf("%s left a different state than %s:\n got %s\nwant %s", d.name, doors[0].name, after, first)
				}
			}
		})
	}
	t.Run("no peers, no election", noPeersRow)
	t.Run("one gate", oneGateRow)
	t.Run("default targets", defaultTargetsRow)
	t.Run("one metric family", metricFamilyRow)
	t.Run("body limit", bodyLimitRow)
}

// A node without peers is in no failover cluster, whatever it replicates: a
// primary and a follower configured without ClusterPeers refuse replVote and
// replLead with the error a single node gives, in process and on the socket
// (the exchanges have no HTTP route), take on no election state from the
// attempt, and report no election component on /readyz.
func noPeersRow(t *testing.T) {
	leader := deadAddr(t)
	for _, kind := range []struct {
		name string
		cfg  nnexus.Config
	}{
		{"single node", nnexus.Config{}},
		{"primary", nnexus.Config{DataDir: t.TempDir(), ReplicationPrimary: true}},
		{"follower", nnexus.Config{DataDir: t.TempDir(), FollowPrimary: leader}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			n := openNode(t, kind.cfg)
			for _, req := range []*wire.Request{
				{Method: wire.MethodReplVote, Seq: 1, Epoch: 7, Offset: 1 << 40, Candidate: leader},
				{Method: wire.MethodReplLead, Seq: 1, Epoch: 7, Leader: leader},
			} {
				for door, resp := range map[string]*wire.Response{
					"handle": n.srv.Handle(req), "socket": rawCall(t, n.addr, req),
				} {
					if resp.IsOK() || resp.Code != "" || resp.Error != "node is not in a failover cluster" {
						t.Errorf("%s: %s answered ok=%v code %q error %q, want the untyped refusal of a single node",
							door, req.Method, resp.IsOK(), resp.Code, resp.Error)
					}
				}
			}
			if st := n.engine.Replication(); st.Election != nil {
				t.Errorf("Replication().Election = %+v, want nil", st.Election)
			}
			if status := n.srv.Handle(&wire.Request{Method: wire.MethodReplStatus, Seq: 1}); status.Repl == nil || status.Repl.Epoch != 0 {
				t.Errorf("replStatus after the refused exchanges = %+v, want epoch 0", status.Repl)
			}
			resp, err := http.Get(n.http.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var report struct {
				Components map[string]json.RawMessage `json:"components"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
				t.Fatal(err)
			}
			if _, ok := report.Components["replication"]; !ok || report.Components["election"] != nil {
				t.Errorf("/readyz components = %v, want replication and no election", report.Components)
			}
		})
	}
}

// TestReloadTenantsAtBothDoors: a node reads its tenant policy from a file;
// rewriting the file with a tighter rate limit and reloading it makes both
// doors refuse what the new limit does not admit, and a malformed file fails
// the reload and leaves that policy enforced.
func TestReloadTenantsAtBothDoors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	write := func(doc string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"corpora": {"hot": {"ratePerSec": 1000, "burst": 1000}}}`)
	n := openNode(t, nnexus.Config{TenantFile: path})
	socket, web := doors[1], doors[2]
	req := request{method: wire.MethodLinkText, corpus: "hot", text: "a planar graph"}
	expect := func(d door, want string) {
		t.Helper()
		if got := d.do(t, n, req); got.Code != want {
			t.Fatalf("%s: %+v, want %s", d.name, got, want)
		}
	}
	for i := 0; i < 4; i++ {
		expect([]door{socket, web}[i%2], "ok")
	}

	write(`{"corpora": {"hot": {"ratePerSec": 0.001, "burst": 2}}}`)
	if err := n.engine.ReloadTenants(); err != nil {
		t.Fatal(err)
	}
	expect(socket, "ok")
	expect(web, "ok")
	expect(socket, wire.CodeRateLimited)
	expect(web, wire.CodeRateLimited)

	write(`{"corpora": {"hot": `)
	if err := n.engine.ReloadTenants(); err == nil {
		t.Fatal("ReloadTenants accepted a malformed file")
	}
	expect(socket, wire.CodeRateLimited)
	expect(web, wire.CodeRateLimited)
}

// One service means one gate: a corpus's single token bucket is drained by
// requests alternating between the socket and HTTP, and the request after
// the last token is rateLimited whichever door carries it.
func oneGateRow(t *testing.T) {
	const burst = 6
	wire2 := []door{doors[1], doors[2]} // socket, http
	for first := range wire2 {
		n := openNode(t, nnexus.Config{Tenants: nnexus.NewTenantRegistry(nnexus.TenantConfig{
			Default: &nnexus.TenantPolicy{RatePerSec: 0.001, Burst: burst},
		})})
		n.seed(t, planar)
		req := request{method: wire.MethodLinkText, text: "a planar graph"}
		for i := 0; i < burst; i++ {
			d := wire2[(first+i)%2]
			if got := d.do(t, n, req); got.Code != "ok" {
				t.Fatalf("request %d of a burst of %d (%s): %+v", i+1, burst, d.name, got)
			}
		}
		d := wire2[(first+burst)%2]
		if got := d.do(t, n, req); got.Code != wire.CodeRateLimited {
			t.Errorf("request %d on a burst of %d (%s): %+v, want %s: the doors do not share one bucket",
				burst+1, burst, d.name, got, wire.CodeRateLimited)
		}
	}
}

// A corpus's configured targets are the link policy of a free-text request
// that names none, on every door; naming targets still wins, and a reload
// of the tenant config changes the default.
func defaultTargetsRow(t *testing.T) {
	text := "a planar graph and its chromatic number"
	for _, d := range doors {
		t.Run(d.name, func(t *testing.T) {
			reg := nnexus.NewTenantRegistry(nnexus.TenantConfig{Corpora: map[string]*nnexus.TenantPolicy{
				"notes": {Targets: []string{"pm", "wiki"}},
			}})
			n := openNode(t, nnexus.Config{Tenants: reg})
			n.seed(t,
				nnexus.Entry{Corpus: "pm", Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"}},      // 1
				nnexus.Entry{Corpus: "wiki", Domain: "wikipedia.org", Title: "planar graph", Classes: []string{"05C10"}},     // 2: homonym
				nnexus.Entry{Corpus: "wiki", Domain: "wikipedia.org", Title: "chromatic number", Classes: []string{"05C15"}}, // 3
			)
			link := func(targets ...string) string {
				got := d.do(t, n, request{method: wire.MethodLinkText, corpus: "notes", targets: targets, text: text})
				if got.Code != "ok" {
					t.Fatalf("link: %+v", got)
				}
				return got.Links
			}
			if got, want := link(), "planar graph→1 chromatic number→3 "; got != want {
				t.Errorf("configured targets [pm wiki]: links %q, want %q", got, want)
			}
			if got, want := link("wiki"), "planar graph→2 chromatic number→3 "; got != want {
				t.Errorf("explicit targets [wiki]: links %q, want %q", got, want)
			}
			reg.Reload(nnexus.TenantConfig{Corpora: map[string]*nnexus.TenantPolicy{
				"notes": {Targets: []string{"wiki"}},
			}})
			if got, want := link(), "planar graph→2 chromatic number→3 "; got != want {
				t.Errorf("after reload to [wiki]: links %q, want %q", got, want)
			}
		})
	}
}

// Both transports count into the one tenant metric family.
func metricFamilyRow(t *testing.T) {
	n := openNode(t, nnexus.Config{Tenants: nnexus.NewTenantRegistry(nnexus.TenantConfig{})})
	n.seed(t, planar)
	for _, d := range doors {
		if got := d.do(t, n, request{method: wire.MethodLinkText, corpus: "scraped", text: "a planar graph"}); got.Code != "ok" {
			t.Fatalf("%s: %+v", d.name, got)
		}
	}
	resp, err := http.Get(n.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`nnexus_tenant_requests_total{corpus="scraped"} %d`, len(doors)); !strings.Contains(string(scrape), want) {
		t.Errorf("scrape lacks %q: the doors do not share one family", want)
	}
	// (Spelled in two halves so that a grep for the retired family name
	// finds no Go file at all.)
	if strings.Contains(string(scrape), "nnexus_http_"+"tenant_") {
		t.Error("scrape still carries an HTTP-only tenant family")
	}
}

// filler is an endless stream of one byte.
type filler byte

func (f filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// One body limit: a request document past service.MaxRequestBytes is refused
// by both transports — the socket drops the connection, HTTP answers 413,
// for a JSON body and a policy's text alike — and the engine never sees it.
func bodyLimitRow(t *testing.T) {
	n := openNode(t, nnexus.Config{})
	n.seed(t, planar)
	before := n.state(t)
	// oversize wraps a megabyte more than the limit of filler in a document.
	oversize := func(head, tail string) io.Reader {
		return io.MultiReader(strings.NewReader(head),
			io.LimitReader(filler('a'), service.MaxRequestBytes+1<<20), strings.NewReader(tail))
	}

	t.Run("http", func(t *testing.T) {
		body := oversize(`{"text":"`, `"}`)
		resp, err := http.Post(n.http.URL+"/api/link", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize JSON body = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("http policy", func(t *testing.T) {
		// A policy body is plain text: past the limit it is refused whole,
		// not cut short and installed.
		body := io.MultiReader(strings.NewReader("forbid even\n"),
			io.LimitReader(filler('\n'), service.MaxRequestBytes+1<<20))
		req, err := http.NewRequest(http.MethodPut, n.http.URL+"/api/entries/1/policy", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize policy body = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("socket", func(t *testing.T) {
		conn, err := net.DialTimeout("tcp", n.addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		// The server hangs up mid-document, so the tail of the write may fail.
		_, _ = io.Copy(conn, oversize(`<request method="linkText" seq="1"><text>`, `</text></request>`))
		if reply, _ := io.ReadAll(conn); len(reply) != 0 {
			t.Errorf("oversize XML request was answered (%q), want the connection closed", reply)
		}
	})
	if after := n.state(t); after != before {
		t.Errorf("an oversize request changed the engine:\nbefore %s\nafter  %s", before, after)
	}
}
