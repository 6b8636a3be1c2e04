// Package nnexus is a Go implementation of NNexus (Noosphere Networked
// Entry eXtension and Unification System), the automatic invocation linker
// behind PlanetMath.org, as described in Gardner, Krowne & Xiong,
// "NNexus: An Automatic Linker for Collaborative Web-Based Corpora" (2009).
//
// NNexus turns every term or phrase in an entry that invokes a concept
// defined elsewhere in a collection into a hyperlink to the defining entry
// — automatically, with no author effort. It keeps perfect link recall via
// a concept map with longest-phrase matching, fights mislinking with
// classification-based link steering over a weighted subject-class tree,
// fights overlinking with per-entry linking policies, and keeps a growing
// corpus fully linked with an invalidation index.
//
// # Quick start
//
//	scheme := nnexus.SampleMSC(10)
//	engine, _ := nnexus.New(nnexus.Config{Scheme: scheme})
//	defer engine.Close()
//	engine.AddDomain(nnexus.Domain{
//		Name:        "planetmath.org",
//		URLTemplate: "http://planetmath.org/?op=getobj&id={id}",
//		Scheme:      "msc",
//	})
//	engine.AddEntry(&nnexus.Entry{
//		Domain:  "planetmath.org",
//		Title:   "planar graph",
//		Classes: []string{"05C10"},
//	})
//	res, _ := engine.LinkText("every planar graph is nice", nnexus.LinkOptions{})
//	fmt.Println(res.Output)
//
// The deeper machinery lives in internal packages; this package is the
// stable public surface.
package nnexus

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/conceptmap"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/health"
	"nnexus/internal/httpapi"
	"nnexus/internal/keywords"
	"nnexus/internal/latex"
	"nnexus/internal/ontomap"
	"nnexus/internal/owl"
	"nnexus/internal/render"
	"nnexus/internal/replication"
	"nnexus/internal/semnet"
	"nnexus/internal/server"
	"nnexus/internal/service"
	"nnexus/internal/storage"
	"nnexus/internal/telemetry"
)

// Core data types, re-exported from the implementation packages.
type (
	// Entry is one corpus object: its concept labels, classes, and body.
	Entry = corpus.Entry
	// Domain describes one corpus site: URL template, scheme, priority.
	Domain = corpus.Domain
	// Scheme is a subject classification hierarchy.
	Scheme = classification.Scheme
	// Mapper translates classes between classification schemes.
	Mapper = ontomap.Mapper
	// Mode selects the linking pipeline configuration.
	Mode = core.Mode
	// Format selects the output syntax of substituted links.
	Format = render.Format
	// LinkOptions controls a single linking operation.
	LinkOptions = core.LinkOptions
	// Result is the outcome of linking one text or entry.
	Result = core.Result
	// Link is one created hyperlink.
	Link = core.Link
	// Skip is one suppressed match.
	Skip = core.Skip
	// AutomatonInfo summarizes the compiled concept-map automaton (see
	// Config.CompileAutomaton).
	AutomatonInfo = conceptmap.AutomatonInfo
	// ReplicationStatus is what a node reports of its replication: role,
	// leader, election term, history epoch, WAL position and followers'
	// lag (see Engine.Replication).
	ReplicationStatus = replication.Status
	// ElectionStatus is the failover part of a ReplicationStatus.
	ElectionStatus = replication.ElectionStatus
	// Client talks to a remote NNexus server over the XML socket protocol.
	Client = client.Client
	// KeywordExtractor suggests concept labels and overlink suspects from
	// corpus statistics (the paper's automatic keyword extraction).
	KeywordExtractor = keywords.Extractor
	// Keyword is one scored candidate concept label.
	Keyword = keywords.Keyword
	// Network is the semantic network of invocation links between entries.
	Network = semnet.Graph
	// NetworkStats summarizes a network's connectivity.
	NetworkStats = semnet.Stats
)

// DefaultCorpusName is the namespace entries and link requests fall into
// when they name no corpus; a single-corpus deployment lives entirely in it.
const DefaultCorpusName = corpus.DefaultCorpus

// Pipeline modes (see the paper's Table 2 configurations).
const (
	// ModeDefault resolves to ModeSteeredPolicies, the deployed pipeline.
	ModeDefault = core.ModeDefault
	// ModeLexical links by lexical matching only.
	ModeLexical = core.ModeLexical
	// ModeSteered adds classification-based link steering.
	ModeSteered = core.ModeSteered
	// ModeSteeredPolicies adds entry filtering by linking policies.
	ModeSteeredPolicies = core.ModeSteeredPolicies
)

// Output formats.
const (
	// HTML wraps link sources in <a href="..."> anchors.
	HTML = render.HTML
	// Markdown emits [text](url) links.
	Markdown = render.Markdown
)

// DefaultBaseWeight is the paper's default classification weight base.
const DefaultBaseWeight = classification.DefaultBaseWeight

// NewScheme creates an empty classification scheme with the given weight
// base; add classes with AddClass and freeze it with Build.
func NewScheme(name string, baseWeight int) *Scheme {
	return classification.NewScheme(name, baseWeight)
}

// SampleMSC builds the Mathematical Subject Classification subtree used in
// the paper's running example — handy for tests and demos.
func SampleMSC(baseWeight int) *Scheme {
	return classification.SampleMSC(baseWeight)
}

// MSC2000 builds a scheme with every top-level area of the real MSC 2000
// classification; grow deeper subtrees with AddClass before Build by using
// NewScheme instead.
func MSC2000(baseWeight int) *Scheme {
	return classification.MSC2000(baseWeight)
}

// NewKeywordExtractor returns an empty keyword extractor; feed it the
// corpus with AddDocument, then call Keywords or OverlinkSuspects.
func NewKeywordExtractor() *KeywordExtractor { return keywords.NewExtractor() }

// LaTeXToText converts LaTeX-marked prose to plain linkable text,
// preserving math spans verbatim so the linker skips them.
func LaTeXToText(input string) string { return latex.ToText(input) }

// LoadSchemeOWL reads a classification scheme from an OWL RDF/XML document.
func LoadSchemeOWL(r io.Reader, name string, baseWeight int) (*Scheme, error) {
	return owl.ParseScheme(r, name, baseWeight)
}

// LoadSchemeOWLFile reads a classification scheme from an OWL file on disk.
func LoadSchemeOWLFile(path, name string, baseWeight int) (*Scheme, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nnexus: open scheme: %w", err)
	}
	defer f.Close()
	return owl.ParseScheme(f, name, baseWeight)
}

// SaveSchemeOWL writes a classification scheme as OWL RDF/XML.
func SaveSchemeOWL(w io.Writer, s *Scheme) error {
	return owl.WriteScheme(w, s)
}

// NewMapper creates an ontology mapper translating classes of scheme
// `from` into classes of scheme `to`.
func NewMapper(from, to string) *Mapper {
	return ontomap.NewMapper(from, to)
}

// NewMSCToWikipediaMapper returns the built-in ontology mapper translating
// MSC top-level area codes into Wikipedia category names — the steering
// bridge a PlanetMath-classified corpus needs to link into a
// Wikipedia-classified one.
func NewMSCToWikipediaMapper() *Mapper { return ontomap.NewMSCToWikipedia() }

// NewWikipediaToMSCMapper returns the inverse built-in mapper (Wikipedia
// category names → MSC area codes).
func NewWikipediaToMSCMapper() *Mapper { return ontomap.NewWikipediaToMSC() }

// Engine is a fully assembled NNexus node: the engine, its store, its place
// in a replication group, and the one request policy and one health state
// every door it opens is handed.
type Engine struct {
	cfg   Config
	core  *core.Engine
	store *storage.Store

	// svc is the node's request pipeline — how much it runs at once, who may write, when
	// a write is acknowledged — and health its liveness and readiness; Serve,
	// ServeListener and HTTPHandler pass these same two values on, so the
	// doors cannot disagree.
	svc    *service.Service
	health *HealthState
}

// New assembles a node from the configuration. Nothing is opened, created or
// started until the whole of cfg has been validated. When DataDir is set, any
// previously persisted state is loaded and all indexes rebuilt.
func New(cfg Config) (*Engine, error) {
	engCfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	// One registry spans every layer: the storage WAL, the engine, and the
	// serving layers (which register onto the engine's registry later).
	reg := telemetry.NewRegistry()
	var store *storage.Store
	if cfg.DataDir != "" {
		opts := []storage.Option{storage.WithTelemetry(reg)}
		if cfg.SyncWrites {
			opts = append(opts, storage.WithSyncWrites())
		}
		// A clustered node may hold either role over its lifetime, so every
		// cluster member keeps the replication record log regardless of its
		// initial role — a freshly promoted follower must be able to serve
		// replSubscribe immediately.
		if cfg.ReplicationPrimary || len(cfg.ClusterPeers) > 0 {
			opts = append(opts, storage.WithReplication())
		}
		if store, err = storage.Open(cfg.DataDir, opts...); err != nil {
			return nil, err
		}
	}
	// A follower's engine takes no store: its state is fed exclusively by
	// the replication stream (local writes would diverge from the primary's
	// WAL numbering), while the store itself is the replica's durable copy.
	engCfg.Telemetry = reg
	if cfg.FollowPrimary == "" {
		engCfg.Store = store
	}
	eng, err := core.NewEngine(engCfg)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	e := &Engine{cfg: cfg, core: eng, store: store, svc: service.New(eng), health: health.NewState()}
	if err := e.boot(reg); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// boot takes the open engine the rest of the way: the configured domains and
// mappers, the replication role, the request policy, the health state. New
// closes the engine when it fails.
func (e *Engine) boot(reg *telemetry.Registry) error {
	cfg := &e.cfg
	// A domain the store replayed as configured costs no WAL record, and a
	// follower's domains are its primary's, not its own to write.
	if cfg.FollowPrimary == "" {
		for _, d := range cfg.Domains {
			if have, ok := e.core.Domain(d.Name); ok && *have == d {
				continue
			}
			if err := e.core.AddDomain(d); err != nil {
				return err
			}
		}
	}
	for _, m := range cfg.Mappers {
		if err := e.core.RegisterMapper(m); err != nil {
			return err
		}
	}

	if cfg.ReplicationPrimary || cfg.FollowPrimary != "" {
		// In a failover cluster the long-poll must cycle several times per
		// election timeout: a quiet primary's only heartbeat is the empty
		// subscribe return, so a wait as long as the timeout would read as
		// silence and trigger spurious elections.
		wait := followerWait
		if len(cfg.ClusterPeers) > 0 {
			et := cfg.ElectionTimeout
			if et <= 0 {
				et = replication.DefaultElectionTimeout
			}
			wait = min(max(et/4, 100*time.Millisecond), followerWait)
		}
		node, err := replication.NewNode(replication.NodeConfig{
			Self:    cfg.AdvertiseAddr,
			Peers:   cfg.ClusterPeers,
			Store:   e.store,
			Applier: e.core,
			Binder:  e.core,
			// A peer — or the primary a node without peers follows — is
			// dialed unconnected: a follower must come up (and serve its
			// replayed state) even while the primary is down, catching up once
			// it returns. The call timeout is sized to the subscribe long-poll
			// so a partitioned (stalled, not refused) link surfaces as a sync
			// failure within seconds, not the generic 30s call timeout;
			// retries stay at one because the follower loop has its own
			// backoff-and-report cycle.
			Dial: func(addr string) (replication.Peer, error) {
				return client.New(addr, dialTimeout,
					client.WithCallTimeout(wait+3*time.Second),
					client.WithMaxRetries(1)), nil
			},
			InitialPrimary:  cfg.ReplicationPrimary,
			InitialLeader:   cfg.FollowPrimary,
			ElectionTimeout: cfg.ElectionTimeout,
			Name:            cfg.ReplicaName,
			Wait:            wait,
			Telemetry:       reg,
		})
		if err != nil {
			return err
		}
		e.svc.Node = node
		if err := node.Start(); err != nil {
			return err
		}
	}
	e.svc.QuorumAcks, e.svc.QuorumTimeout, e.svc.MaxActive = cfg.QuorumAcks, cfg.QuorumTimeout, cfg.MaxActive

	// The engine has loaded, so the node is ready from here; what hosts it
	// flips Health to draining before it shuts the doors.
	if e.store != nil {
		e.health.AddCheck("storage", e.store.Ready)
	}
	e.health.AddCheck("engine", e.core.Failed)
	e.health.AddInfo("replication", func() any { return e.svc.Node.Status() })
	if e.svc.Node.Status().Election != nil {
		e.health.AddInfo("election", func() any { return e.svc.Node.Status().Election })
	}
	e.health.SetReady(true)
	return nil
}

// Close stops replication (if any), saves the invalidation index beside the
// persistent store for the next New to read (unless a write was refused),
// and flushes and closes the store.
func (e *Engine) Close() error {
	e.svc.Node.Stop()
	err := e.core.Close()
	if e.store != nil {
		err = errors.Join(err, e.store.Close())
	}
	return err
}

// AutomatonInfo reports the state of the compiled concept-map automaton:
// whether one is published, how its generation compares to the concept
// map's, its size, and the automaton/fallback scan split. Zero-valued when
// Config.CompileAutomaton is off and nothing forced a compile.
func (e *Engine) AutomatonInfo() AutomatonInfo { return e.core.AutomatonInfo() }

// Compact snapshots the persistent store and truncates its write-ahead log.
func (e *Engine) Compact() error {
	if e.store == nil {
		return nil
	}
	return e.store.Compact()
}

// AddDomain registers (or replaces) a corpus domain.
func (e *Engine) AddDomain(d Domain) error { return e.core.AddDomain(d) }

// Domain returns a registered domain by name.
func (e *Engine) Domain(name string) (*Domain, bool) { return e.core.Domain(name) }

// Domains returns all registered domain names, sorted.
func (e *Engine) Domains() []string { return e.core.Domains() }

// RegisterMapper installs an ontology mapper used to translate a foreign
// domain's classes into the engine's canonical scheme.
func (e *Engine) RegisterMapper(m *Mapper) error { return e.core.RegisterMapper(m) }

// AddEntry validates, stores, and indexes a new entry, assigns its ID (also
// set on the passed entry), and invalidates affected entries.
func (e *Engine) AddEntry(entry *Entry) (int64, error) { return e.core.AddEntry(entry) }

// AddEntries validates, stores, and indexes many entries as one atomic
// batch: a bad entry rejects the whole batch before anything commits, and
// persistence uses a single WAL record (one fsync) instead of one per
// entry. The assigned IDs are returned in order and set on the entries.
// The record is bounded at 1<<20 ops (entries, the invalidation flags they
// raise and the ID high-water mark) and 64 MiB encoded; a batch past either
// is a refused commit, which stops the engine, so split a larger import.
func (e *Engine) AddEntries(entries []*Entry) ([]int64, error) { return e.core.AddEntries(entries) }

// UpdateEntry replaces an existing entry and re-indexes it.
func (e *Engine) UpdateEntry(entry *Entry) error { return e.core.UpdateEntry(entry) }

// RemoveEntry deletes an entry and invalidates entries that linked to it.
func (e *Engine) RemoveEntry(id int64) error { return e.core.RemoveEntry(id) }

// Entry returns a copy of the entry with the given ID.
func (e *Engine) Entry(id int64) (*Entry, bool) { return e.core.Entry(id) }

// Entries returns all entry IDs, sorted.
func (e *Engine) Entries() []int64 { return e.core.Entries() }

// NumEntries returns the number of entries in the collection.
func (e *Engine) NumEntries() int { return e.core.NumEntries() }

// NumConcepts returns the number of distinct concept labels indexed.
func (e *Engine) NumConcepts() int { return e.core.NumConcepts() }

// Scheme returns the engine's canonical classification scheme.
func (e *Engine) Scheme() *Scheme { return e.core.Scheme() }

// DefaultCorpus returns the corpus namespace unqualified entries and link
// requests fall into.
func (e *Engine) DefaultCorpus() string { return e.core.DefaultCorpus() }

// Corpora returns the names of every corpus namespace holding entries,
// sorted.
func (e *Engine) Corpora() []string { return e.core.Corpora() }

// SetPolicy installs (or with empty text removes) an entry's linking
// policy, e.g. "forbid even\nallow even from 11-XX".
func (e *Engine) SetPolicy(id int64, policyText string) error {
	return e.core.SetPolicy(id, policyText)
}

// LinkText runs the linking pipeline over free text: tokenize with
// escaping, match concepts, filter by policies, steer by classification,
// substitute the winning links.
func (e *Engine) LinkText(text string, opts LinkOptions) (*Result, error) {
	return e.core.LinkText(text, opts)
}

// LinkBatch links many texts as one batch: a single snapshot of candidate
// entries and one domain-table generation serve every item, and the items
// run on a worker pool (workers ≤ 0 selects GOMAXPROCS). Results are
// positional; the first item error aborts the batch.
func (e *Engine) LinkBatch(texts []string, opts LinkOptions, workers int) ([]*Result, error) {
	return e.core.LinkBatch(texts, opts, workers)
}

// LinkEntry links a stored entry's body against the whole collection and
// clears its invalidation flag.
func (e *Engine) LinkEntry(id int64, opts LinkOptions) (*Result, error) {
	return e.core.LinkEntry(id, opts)
}

// LinkEntryCached serves a default-pipeline rendering of a stored entry
// from the rendered-output cache, re-linking only when the entry has been
// invalidated. The boolean reports whether the cache was hit.
func (e *Engine) LinkEntryCached(id int64) (*Result, bool, error) {
	return e.core.LinkEntryCached(id)
}

// CacheStats returns cumulative hit/miss counts of the rendered cache.
func (e *Engine) CacheStats() (hits, misses int64) { return e.core.CacheStats() }

// WriteMetrics writes the engine's operational telemetry (operation
// counters, pipeline stage latency histograms, cache effectiveness,
// invalidation-queue depth, and the serving layers' request accounting) in
// the Prometheus text exposition format. The same data is served by the
// HTTP handler at GET /metrics.
func (e *Engine) WriteMetrics(w io.Writer) error { return e.core.Telemetry().WritePrometheus(w) }

// TelemetrySnapshot returns a JSON-friendly snapshot of the engine's
// operational telemetry: scalar metrics as numbers, histograms as
// {count, sum, p50, p90, p99} summaries.
func (e *Engine) TelemetrySnapshot() map[string]interface{} { return e.core.Telemetry().Snapshot() }

// Invalidated returns the IDs of entries marked for re-linking because
// concepts they may invoke were added or changed.
func (e *Engine) Invalidated() []int64 { return e.core.Invalidated() }

// RelinkInvalidated re-links every invalidated entry.
func (e *Engine) RelinkInvalidated() (map[int64]*Result, error) {
	return e.core.RelinkInvalidated()
}

// RelinkInvalidatedParallel re-links every invalidated entry with a worker
// pool (workers ≤ 0 selects GOMAXPROCS).
func (e *Engine) RelinkInvalidatedParallel(workers int) (map[int64]*Result, error) {
	return e.core.RelinkBatch(nil, workers)
}

// RelinkBatch re-links the given entries through the shared-view batch path
// (ids == nil relinks everything invalidated), clearing their invalidation
// flags on success.
func (e *Engine) RelinkBatch(ids []int64, workers int) (map[int64]*Result, error) {
	return e.core.RelinkBatch(ids, workers)
}

// ImportOAI ingests an OAI-style XML metadata dump (see the corpus format
// in the README): the named domain must already be registered. It returns
// the assigned entry IDs.
func (e *Engine) ImportOAI(r io.Reader) ([]int64, error) {
	res, err := corpus.ImportOAI(r)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, 0, len(res.Entries))
	for _, entry := range res.Entries {
		id, err := e.core.AddEntry(entry)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// ImportOAIStream ingests an OAI-style dump record by record in constant
// memory, for large corpus exports. It returns how many entries were added.
func (e *Engine) ImportOAIStream(r io.Reader) (int, error) {
	n := 0
	_, _, err := corpus.ImportOAIStream(r, func(entry *Entry) error {
		if _, err := e.core.AddEntry(entry); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
}

// SemanticNetwork links every stored entry and materializes the resulting
// network of invocation links — the paper's "fully connected network of
// articles". Analyse it with Network.Stats (pass 1 for exact reachability,
// larger values to sample sources on big corpora) or export it with
// Network.WriteDOT.
func (e *Engine) SemanticNetwork() (*Network, error) {
	g := semnet.New()
	ids := e.core.Entries()
	for _, id := range ids {
		if entry, ok := e.core.Entry(id); ok {
			g.AddNode(id, entry.Title)
		}
	}
	for _, id := range ids {
		res, err := e.core.LinkEntry(id, core.LinkOptions{})
		if err != nil {
			return nil, err
		}
		for _, l := range res.Links {
			g.AddEdge(id, l.Target, l.Label)
		}
	}
	return g, nil
}

// Server exposes an engine over the XML socket protocol.
type Server = server.Server

// ClientOption configures Dial: per-call deadlines, retry counts, backoff.
type ClientOption = client.Option

// HealthState tracks a node's liveness and readiness for the /healthz and
// /readyz probes; see Engine.Health.
type HealthState = health.State

// Client-side resilience options.

// WithCallTimeout bounds each remote call, including its wire round trip.
func WithCallTimeout(d time.Duration) ClientOption { return client.WithCallTimeout(d) }

// WithMaxRetries caps transparent retries per call (0 disables retrying).
func WithMaxRetries(n int) ClientOption { return client.WithMaxRetries(n) }

// WithBackoff sets the client's exponential backoff range between retries.
func WithBackoff(base, max time.Duration) ClientOption { return client.WithBackoff(base, max) }

// WithPipelineWindow bounds how many calls the client may keep in flight on
// its connection at once; concurrent callers beyond the window queue for a
// slot. n = 1 is strict stop-and-wait.
func WithPipelineWindow(n int) ClientOption { return client.WithPipelineWindow(n) }

// Client-side replication routing options.

// ErrNoPrimary is returned by a client's write methods when the primary is
// unreachable, wrapping the connection failure; reads keep failing over to
// replicas.
var ErrNoPrimary = client.ErrNoPrimary

// WithReplicas attaches read replicas to a dialed client: reads
// load-balance across caught-up followers, writes pin to the primary, and
// on primary loss reads fail over to followers while writes fail with
// ErrNoPrimary.
func WithReplicas(addrs ...string) ClientOption { return client.WithReplicas(addrs...) }

// WithStalenessBound sets how many records a replica may lag behind the
// primary and still serve routed reads.
func WithStalenessBound(records uint64) ClientOption { return client.WithStalenessBound(records) }

// WithReplicaProbeInterval sets how often replica lag is probed for
// routing.
func WithReplicaProbeInterval(d time.Duration) ClientOption {
	return client.WithReplicaProbeInterval(d)
}

// Serve starts an XML-protocol TCP server for the engine on addr
// ("host:port"; port 0 picks a free port), under the node's request policy
// and Config's limits. The returned bound address can be passed to Dial.
// logger may be nil. Stop it with Server.Close, or drain it gracefully with
// Server.Shutdown.
func (e *Engine) Serve(addr string, logger *log.Logger) (*Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("nnexus: listen: %w", err)
	}
	return e.ServeListener(ln, logger)
}

// ServeListener is Serve for a pre-created listener: callers that must know
// their port before the engine exists (e.g. a cluster whose peers advertise
// each other's addresses) bind the listener first and hand it over here.
// The server owns ln from then on.
func (e *Engine) ServeListener(ln net.Listener, logger *log.Logger) (*Server, string, error) {
	srv := server.New(e.svc, logger, server.WithMaxConns(e.cfg.MaxConns))
	bound, err := srv.Serve(ln)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// Dial connects to an NNexus server. The returned client is self-healing:
// it reconnects on broken connections and transparently retries idempotent
// calls (and pre-execution rejections such as load shedding) with
// exponential backoff.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	return client.Dial(addr, dialTimeout, opts...)
}

// Health returns the node's health state, the one behind the /healthz and
// /readyz probes of every HTTPHandler: ready since New returned, with the
// store's check and the replication (and, clustered, election) detail
// attached. What hosts the engine marks it draining before shutting down, so
// readiness flips before connections close.
func (e *Engine) Health() *HealthState { return e.health }

// Replication reports the node's replication as one snapshot: role, leader,
// election term and history epoch, head, applied offset, lag and sync state,
// each follower's lag on a primary, and, in a failover cluster, the election
// state. It is the "replication" and "election" components of GET /readyz.
func (e *Engine) Replication() ReplicationStatus { return e.svc.Node.Status() }

// HTTPHandler returns an http.Handler exposing the engine as a web service
// (paper §3.4): POST /api/link for on-demand text linking, CRUD under
// /api/entries, and an interactive form at /. Mount it on any mux or server:
//
//	http.ListenAndServe(":8080", engine.HTTPHandler())
//
// The routes run the request pipeline of the socket server's methods, under
// the same policy value: where the node is not the primary, mutating routes
// answer 403 with a JSON body naming the leader (the wire protocol's
// notPrimary), and with QuorumAcks a write whose follower quorum is not met
// answers 503 "quorumUnavailable". Its /api requests and the socket's share
// the node's Config.MaxActive in-flight slots; GET /healthz and /readyz
// answer from Health.
func (e *Engine) HTTPHandler() http.Handler {
	return httpapi.New(e.svc, e.health)
}

// dialTimeout bounds Dial's connection attempt.
const dialTimeout = 5 * time.Second

// followerWait is the replication subscribe long-poll used by follower
// source clients and cluster peer clients; their call timeout is sized to
// it so a stalled link surfaces within seconds.
const followerWait = 2 * time.Second
