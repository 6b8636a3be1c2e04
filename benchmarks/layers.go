package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"nnexus"
	"nnexus/internal/conceptmap"
	"nnexus/internal/invindex"
	"nnexus/internal/render"
	"nnexus/internal/tokenizer"
	"nnexus/internal/wire"
)

const (
	fixtureOps   = 200 // pings x10, label lookups x10
	relinkWrites = 20
	// durableEntries is the size of the engine that fsyncs: small, so that
	// its relinks stay short on a disk whose fsync takes half a millisecond.
	durableEntries = 512
	durableOps     = 50
)

// mallocs is the process's cumulative allocation count. Every replay pass
// starts by reading it, so it also collects first: a pass then begins with
// no collection cycle under way, whatever the pass before it allocated.
func mallocs() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sources resolves the text each op's read links.
func sources(eng *nnexus.Engine, ops []readOp) []string {
	texts := make([]string, len(ops))
	for i, op := range ops {
		texts[i] = op.text
		if op.entry != 0 {
			e, _ := eng.Entry(op.entry)
			texts[i] = e.Body
		}
	}
	return texts
}

// replayReads pushes a fixed sample of the workload's own read ops through
// every layer's public functions, one layer at a time, with a span around
// each call, and returns the per-layer numbers. conn is nil for a workload
// that has no wire.
//
// The spans of one op are client.read, wire.encode, wire.decode and
// core.link > {tokenizer.tokenize, conceptmap.scan, render.apply}. The self
// time of core.link is what the engine spends outside the three stages the
// harness can call (policy, steering, candidate capture). The round trip is
// no parent of the codec and the engine: over a socket the decoder parses
// while the encoder still writes, on the other core, so a round trip is
// shorter than its parts laid end to end. What client, server and socket add
// is therefore taken from CPU time, which does add up: the process's CPU per
// round trip minus the process's CPU per standalone engine call and codec
// pass (each with the collections it causes) and minus what the replay loop
// itself costs.
func replayReads(tr *tracer, f *fixture, ops []readOp, conn *nnexus.Client) (v map[string]float64, problems []string, err error) {
	v = make(map[string]float64)
	n := f.cfg.replay
	at := func(i int) *readOp { return &ops[i%len(ops)] }
	texts := sources(f.eng, ops)
	textOf := func(i int) string { return texts[i%len(ops)] }
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// cpuOf is the process's CPU per op of one pass, in microseconds.
	cpuOf := func(pass func()) float64 {
		runtime.GC()
		c0 := cpuTime()
		pass()
		return float64(cpuTime()-c0) / 1e3 / float64(n)
	}
	var roundTripCPU, loopCPU float64
	if conn != nil {
		roundTripCPU = cpuOf(func() {
			for i := 0; i < n; i++ {
				tr.record("client.read", 0, i, func() {
					_, err := at(i).do(conn)
					fail(err)
				})
			}
		})
		// The loop around an op that does nothing; the CPU clock is too
		// coarse for it, and on one thread its wall time is its CPU time.
		loop := newTracer()
		for i := 0; i < n; i++ {
			loop.record("", 0, i, func() { fail(nil) })
		}
		loopCPU = float64(time.Since(loop.epoch)) / 1e3 / float64(n)
	}

	results := make([]*nnexus.Result, n)
	coreSpan := make([]int, n)
	m0 := mallocs()
	coreCPU := cpuOf(func() {
		for i := 0; i < n; i++ {
			coreSpan[i] = tr.record("core.link", 0, i, func() {
				res, err := at(i).link(f.eng)
				fail(err)
				results[i] = res
			})
		}
	})
	v["core.allocs_op"] = float64(mallocs()-m0) / float64(n)
	if firstErr != nil {
		return nil, nil, firstErr
	}

	var wireCPU float64
	if conn != nil {
		// One long-lived codec per direction over an in-memory stream, as a
		// connection has; a message is decoded right after it was encoded.
		var reqBuf, respBuf bytes.Buffer
		reqEnc, respEnc := wire.NewEncoder(&reqBuf), wire.NewEncoder(&respBuf)
		reqDec, respDec := wire.NewDecoder(&reqBuf), wire.NewDecoder(&respBuf)
		var wireBytes int
		m0 = mallocs()
		wireCPU = cpuOf(func() {
			for i := 0; i < n; i++ {
				op := at(i)
				req := &wire.Request{Seq: int64(i + 1), Method: wire.MethodLinkText, Text: op.text, Classes: op.classes}
				if op.entry != 0 {
					req = &wire.Request{Seq: int64(i + 1), Method: wire.MethodLinkEntry, Object: op.entry}
				}
				resp := wire.OK(req)
				resp.Linked = wireLinked(results[i])
				tr.record("wire.encode", 0, i, func() {
					fail(reqEnc.Encode(req))
					fail(respEnc.Encode(resp))
				})
				wireBytes += reqBuf.Len() + respBuf.Len()
				tr.record("wire.decode", 0, i, func() {
					fail(reqDec.Decode(new(wire.Request)))
					fail(respDec.Decode(new(wire.Response)))
				})
			}
		})
		v["wire.allocs_op"] = float64(mallocs()-m0) / float64(n)
		v["wire.bytes_op"] = float64(wireBytes) / float64(n)
	}

	var tokens []tokenizer.Token
	runtime.GC()
	for i := 0; i < n; i++ {
		tr.record("tokenizer.tokenize", coreSpan[i], i, func() {
			tokens = tokenizer.TokenizeAppend(tokens[:0], textOf(i))
		})
	}

	// A concept map of the harness's own, filled with what the engine holds:
	// before it is compiled every scan takes the chained-hash fallback,
	// afterwards the automaton.
	cmap := conceptmap.New()
	entries := allEntries(f.eng)
	start := time.Now()
	for _, e := range entries {
		cmap.AddObject(conceptmap.ObjectID(e.ID), e.Labels())
	}
	v["conceptmap.add_us_op"] = float64(time.Since(start)) / 1e3 / float64(len(entries))
	var matches []conceptmap.Match
	scanPass := func(name string, parent []int, wantAutomaton bool) {
		runtime.GC()
		for i := 0; i < n; i++ {
			tokens = tokenizer.TokenizeAppend(tokens[:0], textOf(i))
			var usedAutomaton bool
			tr.record(name, parent[i], i, func() {
				matches, usedAutomaton = cmap.ScanAppendAuto(matches[:0], tokens)
			})
			if usedAutomaton != wantAutomaton {
				fail(fmt.Errorf("%s: automaton used = %v", name, usedAutomaton))
			}
		}
	}
	scanPass("conceptmap.scan_fallback", make([]int, n), false)
	start = time.Now()
	cmap.CompileNow()
	v["conceptmap.compile_ms"] = float64(time.Since(start)) / 1e6
	scanPass("conceptmap.scan", coreSpan, true)

	anchors := make([]render.Anchor, 0, 64)
	m0 = mallocs()
	for i := 0; i < n; i++ {
		anchors = anchors[:0]
		for _, l := range results[i].Links {
			anchors = append(anchors, render.Anchor{Start: l.Start, End: l.End, URL: l.URL, Title: l.TargetTitle})
		}
		tr.record("render.apply", coreSpan[i], i, func() {
			_, err := render.Apply(textOf(i), anchors, render.HTML)
			fail(err)
		})
	}
	v["render.allocs_op"] = float64(mallocs()-m0) / float64(n)

	byName, exceeded := selfTimes(tr.spans)
	if len(exceeded) > 0 {
		problems = append(problems, fmt.Sprintf("trace: the children of %v ran longer than their parents", exceeded))
	}
	v["client.roundtrip_us_op"] = byName["client.read"].perOp(false, n)
	v["wire.encode_us_op"] = byName["wire.encode"].perOp(false, n)
	v["wire.decode_us_op"] = byName["wire.decode"].perOp(false, n)
	if conn != nil {
		v["server.overhead_us_op"] = max(0, roundTripCPU-coreCPU-wireCPU-loopCPU)
	}
	v["core.link_us_op"] = byName["core.link"].perOp(false, n)
	v["core.self_us_op"] = byName["core.link"].perOp(true, n)
	v["tokenizer.tokenize_us_op"] = byName["tokenizer.tokenize"].perOp(false, n)
	v["conceptmap.scan_us_op"] = byName["conceptmap.scan"].perOp(false, n)
	v["conceptmap.scan_fallback_us_op"] = byName["conceptmap.scan_fallback"].perOp(false, n)
	v["render.apply_us_op"] = byName["render.apply"].perOp(false, n)
	return v, problems, firstErr
}

// allEntries copies out everything the engine holds.
func allEntries(eng *nnexus.Engine) []*nnexus.Entry {
	ids := eng.Entries()
	entries := make([]*nnexus.Entry, 0, len(ids))
	for _, id := range ids {
		if e, ok := eng.Entry(id); ok {
			entries = append(entries, e)
		}
	}
	return entries
}

func wireLinked(res *nnexus.Result) *wire.Linked {
	out := &wire.Linked{Output: res.Output}
	for _, l := range res.Links {
		out.Links = append(out.Links, wire.LinkInfo{Label: l.Label, Start: l.Start, End: l.End,
			Target: l.Target, Domain: l.TargetDomain, URL: l.URL, Distance: l.Distance})
	}
	for _, s := range res.Skips {
		out.Skips = append(out.Skips, wire.SkipInfo{Label: s.Label, Reason: s.Reason})
	}
	return out
}

// layerFixtures measures the layers no read reaches, at the size the engine
// has now: the invalidation index, the store and the relink path. It writes
// to the engine, so it runs last.
func layerFixtures(f *fixture, conn *nnexus.Client) (map[string]float64, error) {
	v := make(map[string]float64)
	rng := rand.New(rand.NewSource(f.cfg.seed ^ 0xf17))
	entries := allEntries(f.eng)

	if conn != nil {
		pings := make([]float64, 0, 10*fixtureOps)
		for i := 0; i < cap(pings); i++ {
			t0 := time.Now()
			if err := conn.Ping(); err != nil {
				return nil, err
			}
			pings = append(pings, float64(time.Since(t0))/1e3)
		}
		v["client.ping_us"], _ = percentile(pings, 50)
	}

	// The engine's own index is built with the same options.
	ix := invindex.New(invindex.WithAutoCompact(512, invindex.DefaultCompactBelow))
	start := time.Now()
	for _, e := range entries {
		ix.AddText(e.ID, e.Body)
	}
	v["invindex.add_us_op"] = float64(time.Since(start)) / 1e3 / float64(len(entries))
	var bodyBytes int
	var labels []string
	for _, e := range entries {
		bodyBytes += len(e.Body)
		labels = append(labels, e.Labels()...)
	}
	start = time.Now()
	for i := 0; i < 10*fixtureOps; i++ {
		ix.Lookup(labels[rng.Intn(len(labels))])
	}
	v["invindex.lookup_us_op"] = float64(time.Since(start)) / 1e3 / float64(10*fixtureOps)
	v["invindex.postings"] = float64(ix.Stats().Postings)

	d, err := durableWrites(f, rng)
	if err != nil {
		return nil, err
	}
	for k, x := range d {
		v[k] = x
	}

	var relinked int
	var relinkTime time.Duration
	for i := 0; i < relinkWrites; i++ {
		e := entries[rng.Intn(len(entries))]
		e.Body += " " + fillerSentence
		if err := f.eng.UpdateEntry(e); err != nil {
			return nil, err
		}
		invalid := f.eng.Invalidated()
		start = time.Now()
		if _, err := f.eng.RelinkBatch(invalid, 1); err != nil {
			return nil, err
		}
		relinkTime += time.Since(start)
		relinked += len(invalid)
	}
	if relinked > 0 {
		v["core.relink_us_per_entry"] = float64(relinkTime) / 1e3 / float64(relinked)
	}
	return v, nil
}

// durableWrites is the one place the benchmark fsyncs: a second, small
// engine with SyncWrites beside the served one, on the same disk. Author
// writes, each with its relink, go through the whole durable path — WAL
// append, group commit, fsync — and the engine's own counters say how many
// fsyncs and WAL records one cost. The counts are exact; the time is this
// sandbox's disk and nothing else.
func durableWrites(f *fixture, rng *rand.Rand) (map[string]float64, error) {
	dir := f.dir + "-durable"
	defer os.RemoveAll(dir)
	cfg := engineConfig(f.corpus, dir)
	cfg.SyncWrites = true
	eng, err := nnexus.New(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	n := min(durableEntries, len(f.served.Entries))
	if _, err := importCorpus(eng, f.corpus, n); err != nil {
		return nil, err
	}
	if _, err := eng.RelinkInvalidated(); err != nil {
		return nil, err
	}
	walCount := func(name string) float64 {
		x, _ := eng.TelemetrySnapshot()[name].(float64)
		return x
	}
	fsyncs, appends := -walCount("nnexus_wal_fsyncs_total"), -walCount("nnexus_wal_appends_total")
	var ack time.Duration
	for i := 0; i < durableOps; i++ {
		ge := f.corpus.Entries[rng.Intn(n)]
		e := entryOf(ge)
		e.ID = int64(ge.Index)
		e.Body += " " + fillerSentence
		start := time.Now()
		if err := eng.UpdateEntry(e); err != nil {
			return nil, err
		}
		ack += time.Since(start)
		if _, err := eng.RelinkInvalidated(); err != nil {
			return nil, err
		}
	}
	fsyncs += walCount("nnexus_wal_fsyncs_total")
	appends += walCount("nnexus_wal_appends_total")
	if fsyncs == 0 {
		return nil, fmt.Errorf("durable writes: %d author writes with SyncWrites caused no fsync", durableOps)
	}
	return map[string]float64{
		"storage.put_us_op":         float64(ack) / 1e3 / durableOps,
		"storage.fsyncs_op":         fsyncs / durableOps,
		"storage.records_per_fsync": appends / fsyncs,
	}, nil
}

// slowdownRatio compares the last quarter of the full import batches with
// the first: 1 means adding to a full corpus costs what adding to an empty
// one does.
func slowdownRatio(batches []time.Duration, entries int) float64 {
	full := batches[:entries/importBatch]
	q := len(full) / 4
	if q == 0 {
		return 0
	}
	var first, last time.Duration
	for i := 0; i < q; i++ {
		first += full[i]
		last += full[len(full)-1-i]
	}
	return float64(last) / float64(first)
}
