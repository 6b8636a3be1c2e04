package core

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nnexus/internal/corpus"
	"nnexus/internal/latex"
	"nnexus/internal/render"
	"nnexus/internal/shard"
	"nnexus/internal/telemetry"
	"nnexus/internal/tokenizer"
)

// DefaultMaxFanout bounds how many per-shard scans one router runs
// concurrently: the worker-pool size. Scatter-gather calls beyond the bound
// queue for a free worker instead of spawning unbounded goroutines.
const DefaultMaxFanout = 8

// ShardBackend is the router's view of the shard fleet: one method set,
// addressed by shard ID. LocalShardBackend serves in-process engines (tests,
// benchmarks, differential fuzzing); internal/client provides the network
// implementation routing each shard's calls through its replication group.
// Per-shard deadlines are the backend's concern — the network backend bounds
// each exchange with its client call timeout; an error return degrades the
// read to a typed partial result, it never fails the whole request.
type ShardBackend interface {
	// ScanShard runs the per-shard scan+resolve primitive on the given
	// shard, appending into dst (see Engine.ScanShard). tokens are text's,
	// which a backend that does not share the router's vocabulary reads
	// each token's normal form from (tokenizer.Token.NormalForm).
	ScanShard(shardID int, dst []ResolvedMatch, text string, tokens []tokenizer.Token, opts LinkOptions) ([]ResolvedMatch, error)
	// PutEntry upserts an entry projection (with a router-assigned ID) on
	// the given shard.
	PutEntry(shardID int, entry *corpus.Entry) error
	// AddDomain registers a domain on the given shard (domains broadcast
	// to every shard).
	AddDomain(shardID int, d corpus.Domain) error
	// MaxObjectID reports the highest entry ID the shard holds, so the
	// router can recover its global ID sequence at startup.
	MaxObjectID(shardID int) (int64, error)
}

// LocalShardBackend is a ShardBackend over in-process shard engines,
// indexed by shard ID.
type LocalShardBackend struct {
	Engines []*Engine
}

func (b LocalShardBackend) ScanShard(id int, dst []ResolvedMatch, _ string, tokens []tokenizer.Token, opts LinkOptions) ([]ResolvedMatch, error) {
	if id < 0 || id >= len(b.Engines) || b.Engines[id] == nil {
		return dst, fmt.Errorf("core: no engine for shard %d", id)
	}
	return b.Engines[id].ScanShard(dst, tokens, opts)
}

func (b LocalShardBackend) PutEntry(id int, entry *corpus.Entry) error {
	if id < 0 || id >= len(b.Engines) || b.Engines[id] == nil {
		return fmt.Errorf("core: no engine for shard %d", id)
	}
	// Each engine copies the entry when indexing, but the preassigned ID
	// travels on the argument; pass a copy so concurrent shards never race
	// on the caller's struct.
	copied := *entry
	return b.Engines[id].PutEntry(&copied)
}

func (b LocalShardBackend) AddDomain(id int, d corpus.Domain) error {
	if id < 0 || id >= len(b.Engines) || b.Engines[id] == nil {
		return fmt.Errorf("core: no engine for shard %d", id)
	}
	return b.Engines[id].AddDomain(d)
}

func (b LocalShardBackend) MaxObjectID(id int) (int64, error) {
	if id < 0 || id >= len(b.Engines) || b.Engines[id] == nil {
		return 0, fmt.Errorf("core: no engine for shard %d", id)
	}
	return b.Engines[id].MaxObjectID(), nil
}

// RouterConfig configures a ShardRouter.
type RouterConfig struct {
	// Ring is the consistent-hash ring shared with every shard engine.
	// Required, and must match the fleet's: a router and its shards
	// disagreeing on ownership silently lose labels.
	Ring *shard.Ring
	// Backend reaches the shard fleet. Required.
	Backend ShardBackend
	// Format is the default output format for substituted links.
	Format render.Format
	// LaTeX mirrors Config.LaTeX: convert text from LaTeX before
	// tokenizing. Must match the shard engines' setting.
	LaTeX bool
	// LinkAllOccurrences mirrors Config.LinkAllOccurrences.
	LinkAllOccurrences bool
	// MaxFanout bounds concurrent per-shard scans (0 → DefaultMaxFanout).
	MaxFanout int
	// Telemetry is the router's metrics registry (nil creates one).
	Telemetry *telemetry.Registry
}

// routerTelemetry is the router's instrumentation: scatter-gather shape
// (fanout, partials, per-shard scan failures) plus the router-side pipeline
// stages under the PR 1 stage-label contract.
type routerTelemetry struct {
	reg           *telemetry.Registry
	fanout        *telemetry.Histogram
	stageTokenize *telemetry.Histogram
	stageMerge    *telemetry.Histogram
	stageRender   *telemetry.Histogram
	texts         *telemetry.Counter
	links         *telemetry.Counter
	partials      *telemetry.Counter
	scanFailures  []*telemetry.Counter // by shard ID
}

func newRouterTelemetry(reg *telemetry.Registry, n int) *routerTelemetry {
	t := &routerTelemetry{reg: reg}
	t.fanout = reg.Histogram("nnexus_shard_fanout",
		"Shards touched by one scatter-gather LinkText.",
		1, 2, 3, 4, 6, 8, 12, 16)
	stages := reg.HistogramVec("nnexus_pipeline_stage_duration_seconds",
		"Per-stage latency of the linking pipeline (Fig 2).", nil, "stage")
	t.stageTokenize = stages.With(StageTokenize)
	t.stageMerge = stages.With(StageMerge)
	t.stageRender = stages.With(StageRender)
	t.texts = reg.Counter("nnexus_router_link_texts_total",
		"Scatter-gather LinkText requests served by the shard router.")
	t.links = reg.Counter("nnexus_links_created_total",
		"Hyperlinks created by the linking pipeline.")
	t.partials = reg.Counter("nnexus_shard_partial_results_total",
		"Scatter-gather reads degraded to typed partial results because a shard was unavailable.")
	failures := reg.CounterVec("nnexus_shard_scan_failures_total",
		"Per-shard scan calls that failed (timeout, connection, server error).", "shard")
	t.scanFailures = make([]*telemetry.Counter, n)
	for i := range t.scanFailures {
		t.scanFailures[i] = failures.With(strconv.Itoa(i))
	}
	return t
}

// shardCall is one per-shard scan in flight on the router's worker pool.
// Calls live inside pooled routerBuffers, so dispatching a fan-out
// allocates nothing.
type shardCall struct {
	shard  int
	text   string
	tokens []tokenizer.Token
	opts   *LinkOptions
	dst    []ResolvedMatch // recycled capacity for the scan to append into
	out    []ResolvedMatch
	err    error
	pos    int // merge cursor
	wg     *sync.WaitGroup
}

// routerBuffers is the pooled per-request scratch of one scatter-gather
// LinkText: token buffer, fan-out call slots, ownership bitmap, merge
// bookkeeping, and anchor scratch. Pooling it keeps the fan-out itself at
// zero steady-state allocations (asserted by TestShardedLinkTextAllocs).
type routerBuffers struct {
	tokens  []tokenizer.Token
	opts    LinkOptions
	touched []int
	seen    []bool      // len = numShards
	calls   []shardCall // len = numShards, indexed by shard ID
	linked  map[string]bool
	anchors []render.Anchor
	failed  []int
	wg      sync.WaitGroup
}

// ShardRouter is the scatter-gather client of a sharded fleet: consistent-
// hash write routing plus parallel fan-out reads merged locally. LinkText
// tokenizes once, fans the token stream to only the shards owning at least
// one token's first word (bounded by the worker pool), merges the per-shard
// longest-match streams with a global greedy walk, applies the
// first-occurrence rule, and renders — producing output bit-identical to an
// unsharded engine over the same corpus (differentially fuzzed). All
// methods are safe for concurrent use.
type ShardRouter struct {
	cfg  RouterConfig
	ring *shard.Ring
	be   ShardBackend
	n    int

	// nextID is the router's global entry-ID sequence, recovered at
	// construction from the shard fleet's max. One router must own the
	// sequence (single-writer deployment; see DESIGN.md).
	//
	// KNOWN HAZARD (multi-router): recovery happens at startup ONLY. Two
	// routers booted against the same fleet both resume from the same fleet
	// max and then allocate overlapping IDs — each PutEntry silently
	// overwrites the other router's entry of the same ID. With multi-tenant
	// corpora this is worse than a lost update: the colliding entries can
	// belong to DIFFERENT corpora, so one tenant's write would replace
	// another tenant's entry cross-namespace. The engine now fails such a
	// cross-corpus ID reuse loudly (Engine.PutEntry returns
	// *IDCollisionError instead of overwriting), turning the silent
	// corruption into a detectable error. Same-corpus collisions remain
	// indistinguishable from legitimate updates; a fleet-wide sequence
	// lease is the real fix and stays on the ROADMAP.
	nextID atomic.Int64

	calls   chan *shardCall
	workers sync.WaitGroup
	pool    sync.Pool

	tel *routerTelemetry

	mu     sync.Mutex
	closed bool
}

// NewShardRouter builds a router over the given ring and backend. The
// global ID sequence resumes past the highest entry ID any shard reports;
// a shard that cannot answer fails construction (routing writes with a
// stale sequence would collide IDs).
func NewShardRouter(cfg RouterConfig) (*ShardRouter, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("core: RouterConfig.Ring is required")
	}
	if cfg.Backend == nil {
		return nil, fmt.Errorf("core: RouterConfig.Backend is required")
	}
	n := cfg.Ring.NumShards()
	r := &ShardRouter{cfg: cfg, ring: cfg.Ring, be: cfg.Backend, n: n}
	r.pool.New = func() interface{} {
		return &routerBuffers{
			seen:   make([]bool, n),
			calls:  make([]shardCall, n),
			linked: make(map[string]bool, 16),
		}
	}
	var maxID int64
	for s := 0; s < n; s++ {
		id, err := r.be.MaxObjectID(s)
		if err != nil {
			return nil, fmt.Errorf("core: recover ID sequence from shard %d: %w", s, err)
		}
		if id > maxID {
			maxID = id
		}
	}
	r.nextID.Store(maxID)
	r.tel = newRouterTelemetry(cmp.Or(cfg.Telemetry, telemetry.NewRegistry()), n)
	workers := cfg.MaxFanout
	if workers <= 0 {
		workers = DefaultMaxFanout
	}
	if workers > n {
		workers = n
	}
	r.calls = make(chan *shardCall)
	r.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r, nil
}

// worker serves queued per-shard scans. Calls are independent, so a fixed
// pool drains any interleaving of concurrent requests without deadlock.
func (r *ShardRouter) worker() {
	defer r.workers.Done()
	for c := range r.calls {
		c.out, c.err = r.be.ScanShard(c.shard, c.dst[:0], c.text, c.tokens, *c.opts)
		c.wg.Done()
	}
}

// Close stops the router's worker pool. In-flight requests finish first.
func (r *ShardRouter) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.calls)
	r.workers.Wait()
	return nil
}

// NumShards returns the fleet size.
func (r *ShardRouter) NumShards() int { return r.n }

// Telemetry returns the router's metrics registry.
func (r *ShardRouter) Telemetry() *telemetry.Registry { return r.tel.reg }

func (r *ShardRouter) getBuffers() *routerBuffers {
	b := r.pool.Get().(*routerBuffers)
	b.tokens = b.tokens[:0]
	b.touched = b.touched[:0]
	b.anchors = b.anchors[:0]
	b.failed = b.failed[:0]
	clear(b.linked)
	for i := range b.seen {
		b.seen[i] = false
	}
	for i := range b.calls {
		c := &b.calls[i]
		c.pos, c.err, c.out, c.text, c.tokens, c.opts, c.wg = 0, nil, nil, "", nil, nil, nil
	}
	return b
}

func (r *ShardRouter) putBuffers(b *routerBuffers) {
	b.opts = LinkOptions{}
	r.pool.Put(b)
}

// next is the k-way minimum pick over the answering shards' TokenStart-
// ordered streams (matchSource). One owner per first word means no two
// shards ever report the same start position, so the pick is deterministic.
func (b *routerBuffers) next() *ResolvedMatch {
	var best *shardCall
	for _, s := range b.touched {
		c := &b.calls[s]
		if c.err != nil || c.pos == len(c.out) {
			continue
		}
		if best == nil || c.out[c.pos].TokenStart < best.out[best.pos].TokenStart {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	best.pos++
	return &best.out[best.pos-1]
}

func (b *routerBuffers) remaining() int {
	n := 0
	for _, s := range b.touched {
		if c := &b.calls[s]; c.err == nil {
			n += len(c.out) - c.pos
		}
	}
	return n
}

// resolve is a no-op: every shard resolved its own matches (ScanShard).
func (b *routerBuffers) resolve(*ResolvedMatch) {}

// AddDomain registers a domain on every shard (domain metadata is tiny and
// every shard's candidate resolution needs it).
func (r *ShardRouter) AddDomain(d corpus.Domain) error {
	for s := 0; s < r.n; s++ {
		if err := r.be.AddDomain(s, d); err != nil {
			return fmt.Errorf("core: addDomain on shard %d: %w", s, err)
		}
	}
	return nil
}

// AddEntry assigns the entry the next global ID and writes its projection
// to every home shard — the owners of at least one of its labels' ring
// slices. Writes fan out sequentially in shard order; an error leaves the
// entry present on the shards already written (re-adding it with PutEntry
// semantics is idempotent per shard — there is deliberately no distributed
// transaction here, see DESIGN.md). The entry's ID field is set on success.
func (r *ShardRouter) AddEntry(entry *corpus.Entry) (int64, error) {
	if err := entry.Validate(); err != nil {
		return 0, err
	}
	homes := r.homeShards(entry)
	id := r.nextID.Add(1)
	entry.ID = id
	for _, s := range homes {
		if err := r.be.PutEntry(s, entry); err != nil {
			return 0, fmt.Errorf("core: addEntry on shard %d: %w", s, err)
		}
	}
	return id, nil
}

// homeShards returns the sorted set of shards owning at least one of the
// entry's labels.
func (r *ShardRouter) homeShards(entry *corpus.Entry) []int {
	seen := make(map[int]bool, 4)
	homes := make([]int, 0, 4)
	for _, label := range entry.Labels() {
		s := r.ring.OwnerLabel(label)
		if !seen[s] {
			seen[s] = true
			homes = append(homes, s)
		}
	}
	sort.Ints(homes)
	return homes
}

// LinkText is the scatter-gather read: tokenize once, fan the token stream
// out to the shards owning at least one token's first word, then run the
// pipeline's assemble stage over the per-shard longest-match streams: the
// global leftmost-longest walk, the first-occurrence rule, and rendering.
//
// When one or more shards cannot answer, the surviving shards' links are
// still merged and rendered, and the partial *Result is returned together
// with a *shard.UnavailableError naming the missing shards — callers
// distinguish "complete" from "degraded" with errors.As. Links from healthy
// shards are always correct; only links owned by the missing shards can be
// absent.
func (r *ShardRouter) LinkText(text string, opts LinkOptions) (*Result, error) {
	mark := time.Now()
	if r.cfg.LaTeX {
		text = latex.ToText(text)
	}
	buf := r.getBuffers()
	defer r.putBuffers(buf)
	buf.tokens = tokenizer.TokenizeAppend(buf.tokens, text)

	// Fan-out set: only shards owning at least one token's first word can
	// own a label matching anywhere in this text.
	touched := buf.touched
	for i := range buf.tokens {
		s := r.ring.Owner(buf.tokens[i].NormalForm(text))
		if !buf.seen[s] {
			buf.seen[s] = true
			touched = append(touched, s)
		}
	}
	buf.touched = touched
	r.tel.stageTokenize.Observe(time.Since(mark).Seconds())
	r.tel.fanout.Observe(float64(len(touched)))

	// Scatter. A single-shard request runs inline — no handoff, no wait.
	buf.opts = opts
	if len(touched) == 1 {
		c := &buf.calls[touched[0]]
		c.shard = touched[0]
		c.out, c.err = r.be.ScanShard(c.shard, c.dst[:0], text, buf.tokens, buf.opts)
	} else if len(touched) > 1 {
		buf.wg.Add(len(touched))
		for _, s := range touched {
			c := &buf.calls[s]
			c.shard, c.text, c.tokens, c.opts, c.wg = s, text, buf.tokens, &buf.opts, &buf.wg
			r.calls <- c
		}
		buf.wg.Wait()
	}

	// Gather: recycle result capacity, collect failures ascending.
	var firstErr error
	for _, s := range touched {
		c := &buf.calls[s]
		if c.out != nil {
			c.dst = c.out
		}
		if c.err != nil {
			buf.failed = append(buf.failed, s)
			if firstErr == nil {
				firstErr = c.err
			}
			r.tel.scanFailures[s].Inc()
		}
	}
	sort.Ints(buf.failed)

	// Merge and render: assemble's greedy walk over the k-way pick of the
	// per-shard streams (buf.next) is the walk the single-map scan performs.
	var st stageTimes
	res, err := assemble(text, opts.formatOr(r.cfg.Format), r.cfg.LinkAllOccurrences, buf, buf.linked, &buf.anchors, &st)
	if err != nil {
		return nil, err
	}
	r.tel.stageMerge.Observe(st.merge.Seconds())
	r.tel.stageRender.Observe(st.render.Seconds())
	r.tel.texts.Inc()
	r.tel.links.Add(int64(len(res.Links)))
	if len(buf.failed) > 0 {
		r.tel.partials.Inc()
		return res, &shard.UnavailableError{
			Shards: append([]int(nil), buf.failed...),
			Err:    firstErr,
		}
	}
	return res, nil
}
