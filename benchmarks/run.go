package main

import (
	"fmt"
	"path/filepath"

	"nnexus"
)

// report is the outcome of one run: every value measured, keyed by metric
// name, and what the correctness checks found.
type report struct {
	attempted int64
	failed    int64
	problems  []string // a non-empty list makes the run incorrect
	checksum  int64    // total links of the fixed op stream; exact per seed
	values    map[string]float64
	notes     []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) merge(v map[string]float64) {
	for k, x := range v {
		r.values[k] = x
	}
}

// timings reduces the blocks of a timed phase. Every timing is taken to the
// nominal host's clock inside its block (see speed.go) and the median over
// the blocks is reported: ops_s from the untraced blocks, and a traced run's
// overhead from the traced blocks' median beside it.
func (r *report) timings(bs []blockStat, trace bool) {
	var plain, withSpans, cpu, speeds []float64
	for b, st := range bs {
		rate := float64(st.ops) / st.seconds()
		if tracedBlock(trace, b) {
			withSpans = append(withSpans, rate)
		} else {
			plain = append(plain, rate)
		}
		cpu = append(cpu, 1e3*st.cpuSeconds()/float64(st.ops))
		speeds = append(speeds, st.speed)
	}
	r.values["ops_s"] = median(plain)
	r.values["cpu_ms_op"] = median(cpu)
	r.values["host.speed_ratio"] = median(speeds)
	r.notes = append(r.notes, fmt.Sprintf("blocks ops_s %.5g", append(plain, withSpans...)), fmt.Sprintf("blocks speed %.3g", speeds))
	if len(withSpans) > 0 {
		r.values["trace.overhead_ratio"] = median(withSpans) / median(plain)
	}
}

// latencies reduces the read latencies: op_p50_ms is the median over the
// blocks of each block's median on the nominal host's clock. The tails of
// reads that crossed the wire come from all blocks pooled, raw, and are not
// gated.
func (r *report) latencies(bs []blockStat, wired bool) {
	var p50, all []float64
	for _, st := range bs {
		v, _ := percentile(st.latMs, 50)
		p50 = append(p50, v*st.speed)
		all = append(all, st.latMs...)
	}
	r.values["op_p50_ms"] = median(p50)
	if !wired {
		return
	}
	var beyond int
	if r.values["client.op_p99_ms"], beyond = percentile(all, 99); beyond < minBeyond {
		r.notes = append(r.notes, fmt.Sprintf("client.op_p99_ms has only %d samples beyond it", beyond))
	}
	r.values["client.op_p999_ms"], _ = percentile(all, 99.9)
	r.values["client.max_ms"] = all[len(all)-1]
}

func (r *report) cost(pc phaseCost) {
	r.values["alloc_kb_op"] = pc.allocKBOp
	r.values["conceptmap.builds"] = pc.builds
	r.values["conceptmap.fallback_ratio"] = pc.fallbackRatio
	r.values["cache.distance_hit_ratio"] = pc.distanceHitRatio
}

// finish runs what every workload ends with: the quality pass and, in a
// traced run, the layer replay and fixtures and the trace file.
func (r *report) finish(f *fixture, tr *tracer, ops []readOp, conn *nnexus.Client) error {
	q, err := f.quality()
	if err != nil {
		return err
	}
	r.values["precision"], r.values["recall"] = q.Precision(), q.Recall()
	r.notes = append(r.notes, "quality "+q.String())
	r.values["workload.generate_s"] = f.generateS
	if tr == nil {
		return nil
	}
	phaseSpans := tr.spans
	tr.spans = nil
	v, problems, err := replayReads(tr, f, ops, conn)
	if err != nil {
		return err
	}
	r.problems = append(r.problems, problems...)
	r.merge(v)
	r.budget(conn != nil)
	if v, err = layerFixtures(f, conn); err != nil {
		return err
	}
	r.merge(v)
	for _, s := range phaseSpans {
		s.ID = len(tr.spans) + 1
		tr.spans = append(tr.spans, s)
	}
	path := filepath.Join(f.cfg.outDir, f.cfg.workload+".trace.jsonl")
	r.notes = append(r.notes, fmt.Sprintf("trace %d spans in %s", len(tr.spans), path))
	return tr.writeJSONL(path)
}

// budget notes each layer's share of one replayed op, outermost first.
func (r *report) budget(wired bool) {
	v := r.values
	total := v["core.link_us_op"]
	if wired {
		total += v["server.overhead_us_op"] + v["wire.encode_us_op"] + v["wire.decode_us_op"]
	}
	share := func(names ...string) float64 {
		var sum float64
		for _, n := range names {
			sum += v[n]
		}
		return 100 * sum / total
	}
	r.notes = append(r.notes, fmt.Sprintf(
		"budget of one op (%.1f us): client+server %.1f%%  wire %.1f%%  core.self %.1f%%  tokenizer %.1f%%  conceptmap %.1f%%  render %.1f%%",
		total, share("server.overhead_us_op"), share("wire.encode_us_op", "wire.decode_us_op"), share("core.self_us_op"),
		share("tokenizer.tokenize_us_op"), share("conceptmap.scan_us_op"), share("render.apply_us_op")))
}

// tracedBlock says whether block (or repetition) b of a run records spans: a
// traced run leaves its even blocks untraced, so that the two halves of one
// run give the tracing overhead.
func tracedBlock(trace bool, b int) bool { return trace && b%2 == 1 }

func newRunTracer(cfg config) *tracer {
	if !cfg.trace {
		return nil
	}
	return newTracer()
}

func runSnippetRead(cfg config) (*report, error)  { return runRead(cfg, snippetOps, true) }
func runDocumentRead(cfg config) (*report, error) { return runRead(cfg, documentOps, false) }

// runRead is both read workloads: two closed-loop callers on the seeded
// stream that build makes from the served corpus. A wired workload sends it
// over two connections, in slices between which the echo reference runs; the
// other links in-process, with nothing served, beside a sampler.
func runRead(cfg config, build func(*fixture) []readOp, wired bool) (*report, error) {
	f, err := newFixture(cfg)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	ops := build(f)
	do := make([]func(*readOp) (int, error), readCallers)
	conns, spanName := 0, "core.link"
	if wired {
		conns, spanName = readCallers, "client.read"
	}
	for g := range do {
		do[g] = func(op *readOp) (int, error) {
			if wired {
				return op.do(f.conns[g])
			}
			res, err := op.link(f.eng)
			if err != nil {
				return 0, err
			}
			return len(res.Links), nil
		}
	}
	if err := f.setUp(conns, func(i int) error {
		_, err := do[i%len(do)](&ops[i%len(ops)])
		return err
	}); err != nil {
		return nil, err
	}
	var ref *reference
	if wired {
		if ref, err = newReference(readCallers); err != nil {
			return nil, err
		}
		defer ref.close()
	}
	tr := newRunTracer(cfg)
	r := newReport()

	before := readCounters(f.eng)
	ph, err := runReads(ops, do, ref, cfg.duration/blocks, tr, spanName)
	if err != nil {
		return nil, err
	}
	after := readCounters(f.eng)
	r.values["live_heap_mb"] = liveHeapMB()

	r.attempted, r.failed = ph.attempted, ph.failed
	r.values["setup_s"] = f.setupS
	r.timings(ph.blocks, cfg.trace)
	r.latencies(ph.blocks, wired)
	r.cost(before.until(after, ph.attempted))
	r.values["core.import_slowdown_ratio"] = slowdownRatio(f.batchTimes, len(f.served.Entries))
	var problems []string
	r.checksum, problems = verifyReads(f, ops, ph.seen)
	r.problems = append(r.problems, problems...)
	if tr != nil {
		tr.spans = ph.spans
	}
	var conn *nnexus.Client
	if wired {
		conn = f.conns[0]
	}
	return r, r.finish(f, tr, ops, conn)
}

// runAuthorMix is one closed-loop author: write, relink, 18 reads, repeated.
func runAuthorMix(cfg config) (*report, error) {
	f, err := newFixture(cfg)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	base := len(f.served.Entries)
	n := max(1, int(cfg.duration.Seconds()*authorCyclesPerSecond)/blocks) * blocks
	cycles, err := authorCycles(cfg.seed, f.corpus, f.policies, base, n)
	if err != nil {
		return nil, err
	}
	if err := f.setUp(1, func(i int) error {
		_, err := f.conns[0].LinkEntry(cycles[i%n].reads[0], "", "")
		return err
	}); err != nil {
		return nil, err
	}
	res, err := f.eng.LinkText(fillerSentence, nnexus.LinkOptions{})
	if err != nil {
		return nil, err
	}
	if len(res.Links)+len(res.Skips) > 0 {
		return nil, fmt.Errorf("author_mix: the filler sentence matches %d concepts on seed %d", len(res.Links)+len(res.Skips), cfg.seed)
	}
	conn := f.conns[0]
	tr := newRunTracer(cfg)
	r := newReport()

	before := readCounters(f.eng)
	ph := runAuthor(conn, cycles, tr)
	after := readCounters(f.eng)
	r.values["live_heap_mb"] = liveHeapMB()

	r.attempted, r.failed = ph.attempted, ph.failed
	r.checksum = ph.links + ph.relinked
	r.values["setup_s"] = f.setupS
	r.timings(ph.blocks, cfg.trace)
	r.latencies(ph.blocks, true)
	r.cost(before.until(after, ph.ops))
	r.values["core.import_slowdown_ratio"] = slowdownRatio(f.batchTimes, base)
	r.values["client.write_p50_ms"] = median(ph.writeMs)
	r.values["invindex.invalidated_per_write"] = float64(ph.relinked) / float64(n)
	if left := len(f.eng.Invalidated()); left > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d entries are still invalid after the last relink", left))
	}

	// The layers are replayed on the reads of the sequence.
	ops := make([]readOp, 0, n*readsPerCycle)
	for _, cy := range cycles {
		for _, id := range cy.reads {
			ops = append(ops, readOp{entry: id})
		}
	}
	if tr != nil {
		tr.spans = ph.spans
	}
	return r, r.finish(f, tr, ops, conn)
}

// runBulkRecover repeats import, close, reopen in-process and reports the
// medians of the repetitions. An op is one entry imported and recovered.
func runBulkRecover(cfg config) (*report, error) {
	r := newReport()
	reps := bulkReps
	if cfg.trace {
		reps = 2 // one without spans, one with
	}
	var setup, recov, alloc, builds []float64
	var rates, reads []blockStat
	var f *fixture
	var rep *bulkRep
	var tr *tracer
	for i := 0; i < reps; i++ {
		if f != nil {
			f.stop()
		}
		var repTracer *tracer
		if tracedBlock(cfg.trace, i) {
			repTracer = newTracer()
			tr = repTracer
		}
		var problems []string
		var err error
		if rep, f, problems, err = runBulkRep(cfg, bulkDir(cfg, i), repTracer); err != nil {
			return nil, err
		}
		n := int64(len(f.corpus.Entries))
		r.attempted += n
		r.problems = append(r.problems, problems...)
		if i > 0 && rep.links != r.checksum {
			r.problems = append(r.problems, fmt.Sprintf("repetition %d made %d links in the sample, the first made %d", i, rep.links, r.checksum))
		}
		r.checksum = rep.links
		setup = append(setup, rep.setup.seconds()/bulkGenerations)
		recov = append(recov, rep.recov.seconds())
		alloc = append(alloc, rep.allocKBOp)
		builds = append(builds, float64(rep.builds))
		// One block per repetition: the import and the reopen laid end to
		// end, each on the nominal host's clock.
		total := rep.load.seconds() + rep.recov.seconds()
		rates = append(rates, blockStat{ops: n, block: block{wallS: total, speed: 1,
			cpuS: rep.load.cpuSeconds() + rep.recov.cpuSeconds()}})
		reads = append(reads, rep.reads[:]...)
	}
	defer f.stop()
	r.values["live_heap_mb"] = liveHeapMB()
	r.values["setup_s"] = median(setup)
	r.timings(rates, cfg.trace)
	r.values["host.speed_ratio"] = rep.load.speed
	r.latencies(reads, false)
	r.values["alloc_kb_op"] = median(alloc)
	r.values["conceptmap.builds"] = median(builds)
	r.values["core.recover_s"] = median(recov)
	r.values["core.import_slowdown_ratio"] = slowdownRatio(rep.batchTimes, len(f.corpus.Entries))
	r.values["storage.replay_s"] = rep.replayS
	r.values["storage.wal_bytes_per_user_byte"] = rep.walRatio
	r.notes = append(r.notes, fmt.Sprintf("last repetition: import %.3f s at speed %.3f, recover %.3f s at speed %.3f",
		rep.load.seconds(), rep.load.speed, rep.recov.seconds(), rep.recov.speed))

	ops := make([]readOp, 0, len(rep.sample))
	for _, i := range rep.sample {
		ops = append(ops, readOp{entry: int64(i + 1)})
	}
	return r, r.finish(f, tr, ops, nil)
}
