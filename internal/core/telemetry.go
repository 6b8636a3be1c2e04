package core

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nnexus/internal/conceptmap"
	"nnexus/internal/telemetry"
)

// Pipeline stage names, as they appear in the `stage` label of
// nnexus_pipeline_stage_duration_seconds (the stages of the paper's Fig 2).
const (
	StageTokenize = "tokenize" // LaTeX conversion + tokenization
	StageMatch    = "match"    // concept-map scan (link source identification)
	StagePolicy   = "policy"   // entry filtering by linking policies
	StageSteer    = "steer"    // classification steering + tie resolution
	StageRender   = "render"   // link substitution into the output text
	// StageMerge is the shard router's scatter-gather merge: the k-way,
	// global-greedy combination of per-shard match streams into one
	// leftmost-longest winner sequence. Observed by ShardRouter under the
	// same nnexus_pipeline_stage_duration_seconds contract as the engine
	// stages.
	StageMerge = "merge"

	// The match stage is additionally attributed to whichever scan path
	// served it, so the automaton's effect is visible per request: the
	// compiled Aho-Corasick automaton or the chained-hash fallback (used
	// while the automaton trails the snapshot generation or is disabled).
	// StageMatch keeps observing every scan regardless, preserving the
	// PR 1 stage-label contract.
	StageMatchAutomaton = "match_automaton"
	StageMatchFallback  = "match_fallback"
)

// engineTelemetry holds the engine's pre-resolved instruments so the hot
// path never performs a labeled lookup. It is the one count of every fact it
// holds: Engine.Metrics reads its counters.
type engineTelemetry struct {
	reg *telemetry.Registry

	// Operation counters (nnexus_engine_operations_total{op=...,shard=...}).
	opAddEntry    *telemetry.Counter
	opUpdateEntry *telemetry.Counter
	opRemoveEntry *telemetry.Counter
	opSetPolicy   *telemetry.Counter
	opLinkText    *telemetry.Counter
	opLinkEntry   *telemetry.Counter
	opPutEntry    *telemetry.Counter
	opScanShard   *telemetry.Counter

	// Pipeline stage timings and whole-operation latency.
	stageTokenize      *telemetry.Histogram
	stageMatch         *telemetry.Histogram
	stageMatchAutomat  *telemetry.Histogram
	stageMatchFallback *telemetry.Histogram
	stagePolicy        *telemetry.Histogram
	stageSteer         *telemetry.Histogram
	stageRender        *telemetry.Histogram
	linkDuration       *telemetry.Histogram

	// Automaton compile lifecycle (conceptmap background compiler).
	automatonBuild *telemetry.Histogram

	// Link outcomes (nnexus_link_skips_total{reason=...}).
	linksCreated  *telemetry.Counter
	skipPolicy    *telemetry.Counter
	skipSelf      *telemetry.Counter
	skipDuplicate *telemetry.Counter
	skipNoDomain  *telemetry.Counter

	// runs numbers the pipeline runs scanText starts, for sampleRun.
	runs atomic.Uint64

	// Relink batches (sequential and parallel).
	relinkRuns     *telemetry.Counter
	relinkEntries  *telemetry.Counter
	relinkErrors   *telemetry.Counter
	relinkDuration *telemetry.Histogram

	// Shared-view link batches (LinkBatch / the wire linkBatch method).
	batchRuns  *telemetry.Counter
	batchItems *telemetry.Counter

	// Per-corpus (tenant) attribution. Children are resolved lazily because
	// corpora appear at runtime; the cache keeps the post-warmup hot path to
	// one mutex-guarded map hit per operation.
	corpusMu     sync.Mutex
	corpusLnVec  *telemetry.CounterVec
	corpusInvVec *telemetry.CounterVec
	corpusLn     map[string]*telemetry.Counter
	corpusInv    map[string]*telemetry.Counter
}

// corpusLinks returns the nnexus_corpus_links_total child for corpus,
// creating and caching it on first use.
func (t *engineTelemetry) corpusLinks(corpus string) *telemetry.Counter {
	t.corpusMu.Lock()
	c := t.corpusLn[corpus]
	if c == nil {
		c = t.corpusLnVec.With(corpus)
		t.corpusLn[corpus] = c
	}
	t.corpusMu.Unlock()
	return c
}

// corpusInvalidations returns the nnexus_corpus_invalidations_total child
// for corpus, creating and caching it on first use.
func (t *engineTelemetry) corpusInvalidations(corpus string) *telemetry.Counter {
	t.corpusMu.Lock()
	c := t.corpusInv[corpus]
	if c == nil {
		c = t.corpusInvVec.With(corpus)
		t.corpusInv[corpus] = c
	}
	t.corpusMu.Unlock()
	return c
}

// newEngineTelemetry registers the engine's metric families on reg and
// resolves every labeled child once. The gauge funcs close over the engine
// and read live state at scrape time.
func newEngineTelemetry(e *Engine, reg *telemetry.Registry) *engineTelemetry {
	t := &engineTelemetry{reg: reg}

	// Every link/scan/write counter family carries a shard label, so a
	// fleet-wide scrape attributes traffic and skips per ring slice. An
	// unsharded engine's is empty, which the exposition leaves out.
	shard := ""
	if e.cfg.ShardRing != nil {
		shard = strconv.Itoa(e.cfg.ShardID)
	}

	ops := reg.CounterVec("nnexus_engine_operations_total",
		"Engine operations by type.", "op", "shard")
	op := func(name string) *telemetry.Counter { return ops.With(name, shard) }
	t.opAddEntry = op("add_entry")
	t.opUpdateEntry = op("update_entry")
	t.opRemoveEntry = op("remove_entry")
	t.opSetPolicy = op("set_policy")
	t.opLinkText = op("link_text")
	t.opLinkEntry = op("link_entry")
	t.opPutEntry = op("put_entry")
	t.opScanShard = op("scan_shard")

	stages := reg.HistogramVec("nnexus_pipeline_stage_duration_seconds",
		"Per-stage latency of the linking pipeline (Fig 2).", nil, "stage")
	t.stageTokenize = stages.With(StageTokenize)
	t.stageMatch = stages.With(StageMatch)
	t.stageMatchAutomat = stages.With(StageMatchAutomaton)
	t.stageMatchFallback = stages.With(StageMatchFallback)
	t.stagePolicy = stages.With(StagePolicy)
	t.stageSteer = stages.With(StageSteer)
	t.stageRender = stages.With(StageRender)
	t.linkDuration = reg.Histogram("nnexus_link_duration_seconds",
		"End-to-end latency of one LinkText pipeline run.")

	t.linksCreated = reg.CounterVec("nnexus_links_created_total",
		"Hyperlinks created by the linking pipeline.", "shard").With(shard)
	skips := reg.CounterVec("nnexus_link_skips_total",
		"Concept matches deliberately not linked, by reason.", "reason", "shard")
	t.skipPolicy = skips.With(SkipPolicy, shard)
	t.skipSelf = skips.With(SkipSelf, shard)
	t.skipDuplicate = skips.With(SkipDuplicate, shard)
	t.skipNoDomain = skips.With(SkipNoDomain, shard)

	t.relinkRuns = reg.Counter("nnexus_relink_runs_total",
		"Relink batches started (sequential or parallel).")
	t.relinkEntries = reg.Counter("nnexus_relink_entries_total",
		"Entries successfully re-linked by relink batches.")
	t.relinkErrors = reg.Counter("nnexus_relink_errors_total",
		"Errors encountered by relink batches.")
	t.relinkDuration = reg.Histogram("nnexus_relink_batch_duration_seconds",
		"Wall time of one relink batch.")

	t.batchRuns = reg.Counter("nnexus_link_batch_total",
		"Shared-view link batches processed.")
	t.batchItems = reg.Counter("nnexus_link_batch_items_total",
		"Texts linked through shared-view link batches.")

	t.corpusLnVec = reg.CounterVec("nnexus_corpus_links_total",
		"Hyperlinks created, attributed to the source corpus.", "corpus")
	t.corpusInvVec = reg.CounterVec("nnexus_corpus_invalidations_total",
		"Entry invalidations triggered by concept-set changes, by corpus.", "corpus")
	t.corpusLn = make(map[string]*telemetry.Counter)
	t.corpusInv = make(map[string]*telemetry.Counter)

	// Automaton metric family: scan-path split, build lifecycle, and the
	// size/staleness of the published automata. Every corpus runs its own
	// compiler, so the families cover all of them (see automata); all are read
	// from the concept maps' own atomic counters at scrape time, so the
	// lock-free scan path carries no extra instrumentation.
	t.automatonBuild = reg.Histogram("nnexus_automaton_build_seconds",
		"Wall time of one background concept-map automaton compile.")
	reg.CounterVec("nnexus_scan_automaton_total",
		"Concept-map scans served by the compiled Aho-Corasick automaton.", "shard").
		Func(func() float64 { return float64(e.automata().AutomatonScans) }, shard)
	reg.CounterVec("nnexus_scan_fallback_total",
		"Concept-map scans served by the chained-hash fallback (automaton disabled or trailing the snapshot).", "shard").
		Func(func() float64 { return float64(e.automata().FallbackScans) }, shard)
	reg.GaugeFunc("nnexus_automaton_states",
		"States in the published concept-map automaton (0 when none).",
		func() float64 { return float64(e.automata().States) })
	reg.GaugeFunc("nnexus_automaton_edges",
		"Goto edges in the published concept-map automaton.",
		func() float64 { return float64(e.automata().Edges) })
	reg.GaugeFunc("nnexus_automaton_words",
		"Distinct interned words in the published concept-map automaton.",
		func() float64 { return float64(e.automata().Words) })
	reg.GaugeFunc("nnexus_automaton_labels",
		"Concept labels compiled into the published automaton.",
		func() float64 { return float64(e.automata().Labels) })
	reg.GaugeFunc("nnexus_automaton_generation_lag",
		"Snapshot generations the published automaton trails the concept map by.",
		func() float64 { return float64(e.automata().lag) })

	// Live state, read at scrape time.
	reg.GaugeFunc("nnexus_invalidation_queue_depth",
		"Entries currently marked for re-linking by the invalidation index.",
		func() float64 {
			e.mu.RLock()
			n := len(e.invalid)
			e.mu.RUnlock()
			return float64(n)
		})
	reg.GaugeFunc("nnexus_entries",
		"Entries in the collection.",
		func() float64 { return float64(e.NumEntries()) })
	reg.GaugeFunc("nnexus_concepts",
		"Distinct concept labels in the concept map.",
		func() float64 { return float64(e.NumConcepts()) })
	reg.CounterFunc("nnexus_rendered_cache_hits_total",
		"Rendered-output cache hits (paper §2.5 cache table).",
		func() float64 { h, _ := e.rendered.Stats(); return float64(h) })
	reg.CounterFunc("nnexus_rendered_cache_misses_total",
		"Rendered-output cache misses.",
		func() float64 { _, m := e.rendered.Stats(); return float64(m) })
	reg.GaugeFunc("nnexus_rendered_cache_entries",
		"Entries currently held by the rendered-output cache.",
		func() float64 { return float64(e.rendered.Len()) })
	reg.GaugeFunc("nnexus_invalidation_index_keys",
		"Words and phrases tracked by the invalidation indexes (all corpora).",
		func() float64 {
			total := 0
			for _, n := range e.nsMap() {
				total += n.inv.Keys()
			}
			return float64(total)
		})

	return t
}

// sampleEvery is how many pipeline runs share one timed run: the policy and
// steering stages read the clock per concept match, so only the first run
// of every sampleEvery does, and only those runs are observed into the
// policy and steer histograms.
const sampleEvery = 64

// sampleRun numbers a new pipeline run and reports whether it is the one of
// its sampleEvery whose per-match clocks are read.
func (t *engineTelemetry) sampleRun() bool {
	return (t.runs.Add(1)-1)%sampleEvery == 0
}

// stageTimes accumulates one pipeline run's per-stage wall time. Policy and
// steering run once per concept match; their slots accumulate across the
// match loop of a timed run and are observed once per run.
type stageTimes struct {
	tokenize time.Duration
	match    time.Duration
	policy   time.Duration
	steer    time.Duration
	// merge is assemble's walk: on the engine it contains policy and steer
	// (target selection runs inside it); the router observes it as StageMerge.
	merge  time.Duration
	render time.Duration
	// matchAutomaton records which scan path served the match stage, so
	// observeLink can attribute the same duration to the per-path child.
	matchAutomaton bool
	// timed is set by scanText for one run in sampleEvery: only those runs
	// read the per-match clocks, and only they are observed into the policy
	// and steer histograms. ScanShard's runs are never timed.
	timed bool
}

// observeLink records one completed pipeline run, whichever entry point
// started it, on behalf of the source corpus. The run's duration is the sum of its stages: the capture
// between scan and assemble is shared by a whole batch, so no run owns it.
func (t *engineTelemetry) observeLink(st *stageTimes, source string, res *Result) {
	t.opLinkText.Inc()
	t.corpusLinks(source).Add(int64(len(res.Links)))
	t.stageTokenize.Observe(st.tokenize.Seconds())
	t.stageMatch.Observe(st.match.Seconds())
	if st.matchAutomaton {
		t.stageMatchAutomat.Observe(st.match.Seconds())
	} else {
		t.stageMatchFallback.Observe(st.match.Seconds())
	}
	if st.timed {
		t.stagePolicy.Observe(st.policy.Seconds())
		t.stageSteer.Observe(st.steer.Seconds())
	}
	t.stageRender.Observe(st.render.Seconds())
	t.linkDuration.Observe((st.tokenize + st.match + st.merge + st.render).Seconds())
	t.linksCreated.Add(int64(len(res.Links)))
	for _, s := range res.Skips {
		switch s.Reason {
		case SkipPolicy:
			t.skipPolicy.Inc()
		case SkipSelf:
			t.skipSelf.Inc()
		case SkipDuplicate:
			t.skipDuplicate.Inc()
		case SkipNoDomain:
			t.skipNoDomain.Inc()
		}
	}
}

// observeAutomatonBuild is the conceptmap build observer: it records each
// completed background compile's wall time.
func (t *engineTelemetry) observeAutomatonBuild(info conceptmap.BuildInfo) {
	t.automatonBuild.Observe(info.Duration.Seconds())
}

// automataInfo is every corpus's automaton state folded into one: counts and
// sizes summed, and the lag of the corpus whose automaton trails furthest.
type automataInfo struct {
	conceptmap.AutomatonInfo
	lag uint64
}

func (e *Engine) automata() automataInfo {
	var sum automataInfo
	for _, n := range e.nsMap() {
		info := n.cmap.AutomatonInfo()
		sum.AutomatonScans += info.AutomatonScans
		sum.FallbackScans += info.FallbackScans
		sum.States += info.States
		sum.Edges += info.Edges
		sum.Words += info.Words
		sum.Labels += info.Labels
		// Racing loads can't make an automaton "ahead" of its snapshot.
		if info.SnapshotGeneration > info.Generation {
			sum.lag = max(sum.lag, info.SnapshotGeneration-info.Generation)
		}
	}
	return sum
}

// Telemetry returns the engine's metrics registry, shared by every serving
// layer (httpapi middleware, TCP server).
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel.reg }
