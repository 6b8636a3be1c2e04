package main

// metricDef is one row of BENCHMARK.json. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. TestManifestMatchesTables keeps BENCHMARK.json equal to these tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_op", "ms", "lower", 0.25},
	{"alloc_kb_op", "KB", "lower", 0.07},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"precision", "ratio", "higher", 0.01},
	{"recall", "ratio", "higher", 0.01},
}

// perLayer is measured by the traced run from outside each layer; the name
// before the dot is the package. A workload that does not reach a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"client.ping_us", "us", "lower", 0},
	{"client.roundtrip_us_op", "us", "lower", 0},
	{"client.op_p99_ms", "ms", "lower", 0},
	{"client.op_p999_ms", "ms", "lower", 0},
	{"client.max_ms", "ms", "lower", 0},
	{"client.write_p50_ms", "ms", "lower", 0},
	{"wire.encode_us_op", "us", "lower", 0},
	{"wire.decode_us_op", "us", "lower", 0},
	{"wire.bytes_op", "B", "lower", 0},
	{"wire.allocs_op", "count", "lower", 0},
	{"server.overhead_us_op", "us", "lower", 0},
	{"core.link_us_op", "us", "lower", 0},
	{"core.allocs_op", "count", "lower", 0},
	{"core.self_us_op", "us", "lower", 0},
	{"core.relink_us_per_entry", "us", "lower", 0},
	{"core.import_slowdown_ratio", "ratio", "lower", 0},
	{"core.recover_s", "s", "lower", 0},
	{"tokenizer.tokenize_us_op", "us", "lower", 0},
	{"conceptmap.scan_us_op", "us", "lower", 0},
	{"conceptmap.scan_fallback_us_op", "us", "lower", 0},
	{"conceptmap.fallback_ratio", "ratio", "lower", 0},
	{"conceptmap.builds", "count", "lower", 0},
	{"conceptmap.add_us_op", "us", "lower", 0},
	{"conceptmap.compile_ms", "ms", "lower", 0},
	{"render.apply_us_op", "us", "lower", 0},
	{"render.allocs_op", "count", "lower", 0},
	{"invindex.add_us_op", "us", "lower", 0},
	{"invindex.lookup_us_op", "us", "lower", 0},
	{"invindex.postings", "count", "lower", 0},
	{"invindex.invalidated_per_write", "count", "lower", 0},
	{"storage.put_us_op", "us", "lower", 0},
	{"storage.fsyncs_op", "count", "lower", 0},
	{"storage.records_per_fsync", "count", "higher", 0},
	{"storage.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"storage.replay_s", "s", "lower", 0},
	{"cache.distance_hit_ratio", "ratio", "higher", 0},
	{"host.speed_ratio", "ratio", "higher", 0},
	{"workload.generate_s", "s", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
}

// corpusEntries is the generated corpus size of every workload. The paper's
// corpus has 7,145 entries; a run has half a minute, three set-ups and a
// timed phase to fit into it, and an import of 7,132 entries alone took 11 s
// here.
const corpusEntries = 3000

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(cfg config) (*report, error)
}

var workloads = []workloadDef{
	{"snippet_read", "short texts over the wire: client, wire and server dominate, render and the scan are minor", runSnippetRead},
	{"document_read", "5 KB documents in-process: tokenizer, scan, steering and render do all the work, no wire", runDocumentRead},
	{"author_mix", "write, relink, 18 reads per cycle: COW writes, invalidation and chained-hash fallback reads", runAuthorMix},
	{"bulk_recover", "in-process import, close, reopen: storage, invindex, concept-map adds and the compiler, no wire", runBulkRecover},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
