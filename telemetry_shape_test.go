package nnexus_test

// The /metrics surface as a contract: which families a node exposes, of
// which type, under which label names — for an unsharded node, a shard node
// and the router in front of a fleet — and the core.Metrics view of
// /api/stats and the wire stats method as a read of that same registry.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"nnexus"
	"nnexus/internal/wire"
)

// exposition parses a Prometheus text exposition into one line per family:
// "name type label,label", the label names being every name any of its
// samples carries (a histogram's le excluded). samples holds the sample lines.
func exposition(t *testing.T, text string) (shape []string, samples []string) {
	t.Helper()
	type fam struct {
		kind   string
		labels map[string]bool
	}
	fams := map[string]*fam{}
	var cur *fam
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			cur = &fam{kind: f[3], labels: map[string]bool{}}
			fams[f[2]] = cur
			continue
		}
		if cur == nil {
			t.Fatalf("sample before any # TYPE line: %q", line)
		}
		samples = append(samples, line)
		for _, name := range sampleLabels(t, line) {
			if name != "le" {
				cur.labels[name] = true
			}
		}
	}
	for name, f := range fams {
		labels := make([]string, 0, len(f.labels))
		for l := range f.labels {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		shape = append(shape, strings.TrimSpace(name+" "+f.kind+" "+strings.Join(labels, ",")))
	}
	sort.Strings(shape)
	return shape, samples
}

// sampleLabels returns the label names of one sample line, reading quoted
// values (which may hold braces, commas and escapes) properly.
func sampleLabels(t *testing.T, line string) []string {
	t.Helper()
	open := strings.IndexAny(line, "{ ")
	if open < 0 || line[open] == ' ' {
		return nil
	}
	var names []string
	i := open + 1
	for i < len(line) && line[i] != '}' {
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 || i+eq+1 >= len(line) || line[i+eq+1] != '"' {
			t.Fatalf("malformed labels in %q", line)
		}
		names = append(names, line[i:i+eq])
		j := i + eq + 2
		for ; j < len(line) && line[j] != '"'; j++ {
			if line[j] == '\\' {
				j++
			}
		}
		i = j + 1
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
	return names
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func httpPost(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s: status %d", url, body, resp.StatusCode)
	}
}

// goldenShapes is the exposition shape at the commit before telemetry became
// unconditional (a5a00a2), generated there by this test.
var goldenShapes = map[string][]string{
	"unsharded": {
		"nnexus_automaton_build_seconds histogram",
		"nnexus_automaton_edges gauge",
		"nnexus_automaton_generation_lag gauge",
		"nnexus_automaton_labels gauge",
		"nnexus_automaton_states gauge",
		"nnexus_automaton_words gauge",
		"nnexus_concepts gauge",
		"nnexus_corpus_invalidations_total counter corpus",
		"nnexus_corpus_links_total counter corpus",
		"nnexus_drain_duration_seconds histogram",
		"nnexus_engine_operations_total counter op",
		"nnexus_entries gauge",
		"nnexus_http_in_flight_requests gauge",
		"nnexus_http_request_duration_seconds histogram endpoint",
		"nnexus_http_requests_total counter code,endpoint",
		"nnexus_invalidation_index_keys gauge",
		"nnexus_invalidation_queue_depth gauge",
		"nnexus_link_batch_items_total counter",
		"nnexus_link_batch_total counter",
		"nnexus_link_duration_seconds histogram",
		"nnexus_link_skips_total counter reason",
		"nnexus_links_created_total counter",
		"nnexus_panics_recovered_total counter layer",
		"nnexus_pipeline_stage_duration_seconds histogram stage",
		"nnexus_relink_batch_duration_seconds histogram",
		"nnexus_relink_entries_total counter",
		"nnexus_relink_errors_total counter",
		"nnexus_relink_runs_total counter",
		"nnexus_rendered_cache_entries gauge",
		"nnexus_rendered_cache_hits_total counter",
		"nnexus_rendered_cache_misses_total counter",
		"nnexus_requests_shed_total counter layer",
		"nnexus_scan_automaton_total counter",
		"nnexus_scan_fallback_total counter",
		"nnexus_tcp_connections_active gauge",
		"nnexus_tcp_connections_rejected_total counter",
		"nnexus_tcp_connections_total counter",
		"nnexus_tcp_pipeline_depth histogram",
		"nnexus_tcp_request_duration_seconds histogram",
		"nnexus_tcp_request_errors_total counter",
		"nnexus_tcp_request_timeouts_total counter",
		"nnexus_tcp_requests_total counter method",
		"nnexus_tenant_rejected_total counter",
		"nnexus_tenant_requests_total counter",
		"nnexus_wal_appends_total counter",
		"nnexus_wal_fsyncs_total counter",
		"nnexus_wal_group_commit_batch_size histogram",
	},
	"shard": {
		"nnexus_automaton_build_seconds histogram",
		"nnexus_automaton_edges gauge",
		"nnexus_automaton_generation_lag gauge",
		"nnexus_automaton_labels gauge",
		"nnexus_automaton_states gauge",
		"nnexus_automaton_words gauge",
		"nnexus_concepts gauge",
		"nnexus_corpus_invalidations_total counter",
		"nnexus_corpus_links_total counter corpus",
		"nnexus_drain_duration_seconds histogram",
		"nnexus_engine_operations_total counter op,shard",
		"nnexus_entries gauge",
		"nnexus_http_in_flight_requests gauge",
		"nnexus_http_request_duration_seconds histogram endpoint",
		"nnexus_http_requests_total counter code,endpoint",
		"nnexus_invalidation_index_keys gauge",
		"nnexus_invalidation_queue_depth gauge",
		"nnexus_link_batch_items_total counter",
		"nnexus_link_batch_total counter",
		"nnexus_link_duration_seconds histogram",
		"nnexus_link_skips_total counter reason,shard",
		"nnexus_links_created_total counter shard",
		"nnexus_panics_recovered_total counter layer",
		"nnexus_pipeline_stage_duration_seconds histogram stage",
		"nnexus_relink_batch_duration_seconds histogram",
		"nnexus_relink_entries_total counter",
		"nnexus_relink_errors_total counter",
		"nnexus_relink_runs_total counter",
		"nnexus_rendered_cache_entries gauge",
		"nnexus_rendered_cache_hits_total counter",
		"nnexus_rendered_cache_misses_total counter",
		"nnexus_requests_shed_total counter layer",
		"nnexus_scan_automaton_total counter shard",
		"nnexus_scan_fallback_total counter shard",
		"nnexus_tcp_connections_active gauge",
		"nnexus_tcp_connections_rejected_total counter",
		"nnexus_tcp_connections_total counter",
		"nnexus_tcp_pipeline_depth histogram",
		"nnexus_tcp_request_duration_seconds histogram",
		"nnexus_tcp_request_errors_total counter",
		"nnexus_tcp_request_timeouts_total counter",
		"nnexus_tcp_requests_total counter method",
		"nnexus_tenant_rejected_total counter",
		"nnexus_tenant_requests_total counter",
		"nnexus_wal_appends_total counter",
		"nnexus_wal_fsyncs_total counter",
		"nnexus_wal_group_commit_batch_size histogram",
	},
	"router": {
		"nnexus_links_created_total counter",
		"nnexus_pipeline_stage_duration_seconds histogram stage",
		"nnexus_router_link_texts_total counter",
		"nnexus_shard_fanout histogram",
		"nnexus_shard_partial_results_total counter",
		"nnexus_shard_scan_failures_total counter shard",
	},
}

// TestExpositionShape drives a fixed sequence of operations through the
// engine, the socket and HTTP of an unsharded two-corpus node and of a
// two-shard fleet behind a ShardRouter, and compares every /metrics family's
// type and label names with the golden list: no family or label may be
// renamed, dropped or added. No unsharded sample may carry a shard label.
func TestExpositionShape(t *testing.T) {
	got := map[string][]string{}

	// An unsharded node holding two corpora.
	n := openNode(t, nnexus.Config{DataDir: t.TempDir()})
	n.seed(t, planar, even,
		nnexus.Entry{Corpus: "wiki", Domain: "wikipedia.org", Title: "graph", Classes: []string{"05C99"}})
	if _, err := n.engine.LinkText("an even planar graph and an even graph", nnexus.LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	c, err := nnexus.Dial(n.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LinkTextIn("wiki", nil, "a planar graph", nil, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	httpPost(t, n.http.URL+"/api/link", `{"text":"an even planar graph","corpus":"wiki"}`)
	httpGet(t, n.http.URL+"/api/entries/2/linked")
	httpPost(t, n.http.URL+"/api/relink", "")
	httpGet(t, n.http.URL+"/api/stats")
	unsharded := httpGet(t, n.http.URL+"/metrics")
	var samples []string
	got["unsharded"], samples = exposition(t, unsharded)
	for _, s := range samples {
		if strings.Contains(s, "shard=") {
			t.Errorf("unsharded sample carries a shard label: %s", s)
		}
	}

	// Two shard nodes behind a router.
	ring := nnexus.NewShardRing(2, 0)
	m := &nnexus.ShardMap{Version: 1}
	var shards []*node
	for i := 0; i < 2; i++ {
		sn := openNode(t, nnexus.Config{DataDir: t.TempDir(), ShardRing: ring, ShardID: i})
		shards = append(shards, sn)
		m.Shards = append(m.Shards, nnexus.ShardSpec{ID: i, Addrs: []string{sn.addr}})
	}
	router, err := nnexus.DialSharded(m, nnexus.WithCallTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if err := router.AddDomain(nnexus.Domain{Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc"}); err != nil {
		t.Fatal(err)
	}
	words := shardOwnedWords(t, ring)
	for _, title := range append(words, words[0]+" "+words[1]) {
		if _, err := router.AddEntry(&nnexus.Entry{Domain: "planetmath.org", Title: title, Classes: []string{"05C10"}}); err != nil {
			t.Fatal(err)
		}
	}
	text := fmt.Sprintf("a %s %s, a %s and a %s again", words[0], words[1], words[1], words[0])
	for i := 0; i < 2; i++ {
		if _, err := router.LinkText(text, nnexus.LinkOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var shardShape []string
	for _, sn := range shards {
		httpPost(t, sn.http.URL+"/api/link", fmt.Sprintf(`{"text":%q}`, text))
		httpGet(t, sn.http.URL+"/api/stats")
		shape, _ := exposition(t, httpGet(t, sn.http.URL+"/metrics"))
		shardShape = append(shardShape, shape...)
	}
	slices.Sort(shardShape)
	got["shard"] = slices.Compact(shardShape)
	var sb strings.Builder
	if err := router.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got["router"], _ = exposition(t, sb.String())

	for _, kind := range []string{"unsharded", "shard", "router"} {
		if !reflect.DeepEqual(got[kind], goldenShapes[kind]) {
			var b strings.Builder
			for _, l := range got[kind] {
				fmt.Fprintf(&b, "\t\t%q,\n", l)
			}
			t.Errorf("%s exposition shape differs from the golden list; got:\n\t%q: {\n%s\t},", kind, kind, b.String())
		}
	}
}

// TestMetricsViewIsTheRegistry pins core.Metrics — the "metrics" object of
// /api/stats and the wire stats counters — to the registry's own counters
// after a mixed workload: entries added and put, invalidations across
// corpora, links, skips and a relink.
func TestMetricsViewIsTheRegistry(t *testing.T) {
	n := openNode(t, nnexus.Config{})
	n.seed(t, planar, even,
		nnexus.Entry{Corpus: "wiki", Domain: "wikipedia.org", Title: "matroid", Classes: []string{"05C99"},
			Body: "a planar graph that is even"})
	if err := n.engine.SetPolicy(2, "forbid even"); err != nil {
		t.Fatal(err)
	}
	// A put of a new concept, into the other corpus, invalidates entries of
	// both that mention it.
	put := &nnexus.Entry{ID: 50, Corpus: "wiki", Domain: "wikipedia.org", Title: "graph", Classes: []string{"05C99"}}
	if resp := rawCall(t, n.addr, &wire.Request{Method: wire.MethodPutEntry, Entry: wire.FromCorpus(put)}); !resp.IsOK() {
		t.Fatalf("putEntry: %s", resp.Error)
	}
	if _, err := n.engine.AddEntry(&nnexus.Entry{Domain: "planetmath.org", Title: "planar", Classes: []string{"05C10"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.engine.LinkText("an even planar graph, an even planar graph", nnexus.LinkOptions{SourceClasses: []string{"11A51"}}); err != nil {
		t.Fatal(err)
	}
	c, err := nnexus.Dial(n.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.LinkEntry(3, "", ""); err != nil {
		t.Fatal(err)
	}
	httpPost(t, n.http.URL+"/api/relink", "")

	snap := n.engine.TelemetrySnapshot()
	family := func(name string) map[string]interface{} {
		f, _ := snap[name].(map[string]interface{})
		return f
	}
	count := func(v interface{}) int64 { f, _ := v.(float64); return int64(f) }
	ops, skips := family("nnexus_engine_operations_total"), family("nnexus_link_skips_total")
	var invalidations int64
	for _, v := range family("nnexus_corpus_invalidations_total") {
		invalidations += count(v)
	}
	want := map[string]int64{
		"textsLinked":    count(ops["op=link_text"]),
		"entriesLinked":  count(ops["op=link_entry"]),
		"entriesAdded":   count(ops["op=add_entry"]) + count(ops["op=put_entry"]),
		"linksCreated":   count(snap["nnexus_links_created_total"]),
		"policySkips":    count(skips["reason=policy"]),
		"selfSkips":      count(skips["reason=self"]),
		"duplicateSkips": count(skips["reason=duplicate"]),
		"invalidations":  invalidations,
	}
	for _, k := range []string{"textsLinked", "entriesLinked", "linksCreated", "duplicateSkips", "invalidations"} {
		if want[k] == 0 {
			t.Errorf("the workload left %s at zero: %v", k, want)
		}
	}
	if want["entriesAdded"] != 5 {
		t.Errorf("entriesAdded = %d, want 5 (four adds and a put)", want["entriesAdded"])
	}

	var stats struct {
		Metrics map[string]int64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, n.http.URL+"/api/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats.Metrics, want) {
		t.Errorf("/api/stats metrics = %v, registry says %v", stats.Metrics, want)
	}
	ws, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ws.LinksCreated != want["linksCreated"] || ws.TextsLinked != want["textsLinked"] {
		t.Errorf("wire stats links/texts = %d/%d, registry says %d/%d",
			ws.LinksCreated, ws.TextsLinked, want["linksCreated"], want["textsLinked"])
	}
}
