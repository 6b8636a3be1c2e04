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
	"time"

	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"

	"nnexus/internal/classification"
	"nnexus/internal/client"
	"nnexus/internal/conceptmap"
	"nnexus/internal/config"
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
	"nnexus/internal/shard"
	"nnexus/internal/storage"
	"nnexus/internal/telemetry"
	"nnexus/internal/tenant"
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
	// Client talks to a remote NNexus server over the XML socket protocol.
	Client = client.Client
	// DeployConfig is a parsed XML deployment configuration.
	DeployConfig = config.Config
	// KeywordExtractor suggests concept labels and overlink suspects from
	// corpus statistics (the paper's automatic keyword extraction).
	KeywordExtractor = keywords.Extractor
	// Keyword is one scored candidate concept label.
	Keyword = keywords.Keyword
	// Network is the semantic network of invocation links between entries.
	Network = semnet.Graph
	// NetworkStats summarizes a network's connectivity.
	NetworkStats = semnet.Stats
	// ShardMap is a parsed shard-map document: the consistent-hash ring
	// parameters and each shard's replication-group addresses.
	ShardMap = shard.MapConfig
	// ShardSpec is one shard's entry in a ShardMap.
	ShardSpec = shard.ShardSpec
	// ShardRing is the consistent-hash ring partitioning the label space by
	// morph-folded first word.
	ShardRing = shard.Ring
	// ShardUnavailableError is the typed partial-result error a scatter-
	// gather read returns when one or more shards cannot answer; detect it
	// with errors.As. The accompanying Result still carries every link the
	// healthy shards produced.
	ShardUnavailableError = shard.UnavailableError
	// ShardRouter is the scatter-gather client of a sharded fleet: writes
	// route by consistent hash, reads fan out to the owning shards in
	// parallel and merge locally, bit-identical to an unsharded engine.
	ShardRouter = core.ShardRouter
	// ShardRouterConfig configures a ShardRouter.
	ShardRouterConfig = core.RouterConfig
	// ShardBackend is the router's pluggable transport to the shard fleet.
	ShardBackend = core.ShardBackend
	// LocalShardBackend serves a router from in-process shard engines.
	LocalShardBackend = core.LocalShardBackend
	// TenantPolicy is one corpus's resource envelope: token-bucket rate
	// limit, entry/byte quotas, and default cross-corpus link targets.
	TenantPolicy = tenant.Policy
	// TenantConfig maps corpus IDs to tenant policies (the -tenant-config
	// JSON shape).
	TenantConfig = tenant.Config
	// TenantRegistry is a deployment's live tenant-policy table; wire it
	// into the serving layers with WithTenants / WithHTTPTenants. Hot-reload
	// it with Reload/ReloadFile (nnexusd does this on SIGHUP).
	TenantRegistry = tenant.Registry
	// TenantRateLimitedError is the typed pre-execution rejection a corpus's
	// token bucket raises; detect it with errors.As or IsTenantRateLimited.
	TenantRateLimitedError = tenant.RateLimitedError
	// TenantQuotaExceededError is the typed pre-execution rejection a write
	// past a corpus's entry/byte quota raises.
	TenantQuotaExceededError = tenant.QuotaExceededError
)

// DefaultCorpusName is the namespace entries and link requests fall into
// when they name no corpus; single-corpus deployments live entirely inside
// it and behave exactly as before multi-tenancy existed.
const DefaultCorpusName = corpus.DefaultCorpus

// NewTenantRegistry builds a tenant-policy registry from a config. A zero
// TenantConfig admits everything.
func NewTenantRegistry(cfg TenantConfig) *TenantRegistry { return tenant.NewRegistry(cfg) }

// LoadTenantConfig reads and parses a tenant-config JSON file (the format
// accepted by nnexusd -tenant-config; see the tenant package docs).
func LoadTenantConfig(path string) (TenantConfig, error) { return tenant.LoadFile(path) }

// IsTenantRateLimited reports whether err is (or wraps) a tenant
// rate-limit rejection.
func IsTenantRateLimited(err error) bool { return tenant.IsRateLimited(err) }

// IsTenantQuotaExceeded reports whether err is (or wraps) a tenant quota
// rejection.
func IsTenantQuotaExceeded(err error) bool { return tenant.IsQuotaExceeded(err) }

// WithTenants enforces a tenant-policy registry on the XML socket server:
// per-corpus token buckets gate every request and entry/byte quotas gate
// writes, both rejected BEFORE execution with the typed rateLimited /
// quotaExceeded error codes.
func WithTenants(r *TenantRegistry) ServerOption { return server.WithTenants(r) }

// WithHTTPTenants is WithTenants for the HTTP API handler: rate-limited
// requests answer 429 + Retry-After, quota rejections answer 403, both with
// the same typed error codes as the wire protocol.
func WithHTTPTenants(r *TenantRegistry) HTTPOption { return httpapi.WithTenants(r) }

// LoadConfig reads an XML deployment configuration file.
func LoadConfig(path string) (*DeployConfig, error) { return config.Load(path) }

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

// Config configures an Engine.
type Config struct {
	// Scheme is the canonical classification scheme used for link
	// steering. Required.
	Scheme *Scheme
	// DataDir persists the engine's tables (entries, domains, policies,
	// invalidation flags) under this directory; empty runs memory-only.
	DataDir string
	// SyncWrites makes every persisted mutation fsync before returning.
	SyncWrites bool
	// GroupCommitWindow stretches the WAL group-commit gathering window:
	// under SyncWrites, a committing writer waits up to this long for
	// concurrent writers to stage their appends, then one fsync covers the
	// whole group. Zero (the default) commits eagerly — concurrent writers
	// still coalesce whenever an fsync is already in progress.
	GroupCommitWindow time.Duration
	// Mode is the default pipeline mode (ModeDefault = full pipeline).
	Mode Mode
	// Format is the default output format (HTML).
	Format Format
	// AllowSelfLinks permits entries to link to their own concepts.
	AllowSelfLinks bool
	// DefaultCorpus is the corpus namespace entries and link requests fall
	// into when they name none. Empty means DefaultCorpusName ("default").
	// Single-corpus deployments never need to set it.
	DefaultCorpus string
	// LinkAllOccurrences links every occurrence of a concept label rather
	// than only the first (the deployed system links only the first, "to
	// reduce visual clutter").
	LinkAllOccurrences bool
	// LaTeX converts entry bodies and linked text from LaTeX markup to
	// plain text before scanning (Noosphere entries are written in TeX).
	LaTeX bool
	// CompileAutomaton runs the background concept-map compiler: published
	// snapshots are compiled into an immutable Aho-Corasick automaton that
	// scans text in one allocation-free pass, and the engine serves scans
	// from it whenever it is current (falling back to the chained-hash
	// structure while it trails a write burst). Results are identical
	// either way; this trades a little background CPU after writes for
	// several-fold match-stage throughput.
	CompileAutomaton bool
	// ReplicationPrimary makes this node a replication primary: the store
	// retains its WAL record log and Serve answers the replSubscribe /
	// replSnapshot / replAck exchanges followers use to mirror it. Requires
	// DataDir; mutually exclusive with FollowPrimary.
	ReplicationPrimary bool
	// FollowPrimary makes this node a read replica of the primary at this
	// address ("host:port" of its XML-protocol listener): a background loop
	// streams the primary's WAL into the local store and engine, Serve
	// answers the full read surface, and writes are rejected with a typed
	// notPrimary redirect naming the primary. Requires DataDir (the replica's
	// durable state, which replays across restarts).
	FollowPrimary string
	// ReplicaName identifies this follower in replAck reports and the
	// primary's per-follower lag gauge (default: hostname).
	ReplicaName string
	// ClusterPeers enables automatic failover: the XML-protocol addresses of
	// the OTHER nodes in the cluster (not this node's own). Every node then
	// runs an election state machine — followers that lose contact with the
	// primary beyond the election timeout elect the freshest of themselves,
	// the winner promotes to a writable primary, and a deposed primary is
	// fenced by epoch on its first contact with the new regime. Requires
	// DataDir, AdvertiseAddr, and exactly one of ReplicationPrimary (this
	// node boots as the leader) or FollowPrimary (this node boots following
	// that address).
	ClusterPeers []string
	// AdvertiseAddr is this node's own XML-protocol address as its peers
	// dial it ("host:port"); it names the node in vote requests and leader
	// announcements. Required with ClusterPeers.
	AdvertiseAddr string
	// ElectionTimeout is how long a follower tolerates primary silence
	// before standing for election (default replication.DefaultElectionTimeout;
	// actual arming is jittered to de-synchronize candidates).
	ElectionTimeout time.Duration
	// QuorumAcks makes writes quorum-acknowledged: a mutating request is
	// answered only after this many followers have confirmed the write's WAL
	// offset durable (0, the default, acknowledges on local durability
	// alone). A write that cannot gather the quorum within QuorumTimeout
	// answers a typed quorumUnavailable error — the write IS durable on the
	// primary, but its replication guarantee is not yet met. Requires a
	// primary-capable role (ReplicationPrimary or ClusterPeers); with
	// ClusterPeers, New enforces the failover-durability floor
	// QuorumAcks+1+majority > N (e.g. at least 1 for 3 nodes, 2 for 5), the
	// smallest k at which a quorum-acked write provably survives any
	// election the cluster can hold.
	QuorumAcks int
	// QuorumTimeout bounds the quorum wait (default 5s).
	QuorumTimeout time.Duration
	// ShardMap is the path to a shard-map JSON document; with ShardID it
	// puts the engine in shard mode: the node indexes and scans only the
	// slice of the label space its ring position owns, and serves the
	// shardScan/putEntry methods a ShardRouter fans out to. Every node of a
	// shard's replication group runs with the same ShardMap and ShardID.
	ShardMap string
	// ShardRing puts the engine in shard mode from an in-memory ring
	// instead of a ShardMap file (tests, embedded fleets). ShardMap, when
	// set, takes precedence.
	ShardRing *ShardRing
	// ShardID is this node's 0-based shard on the ring. Used with ShardMap
	// or ShardRing.
	ShardID int
}

// Engine is a fully assembled NNexus instance.
type Engine struct {
	core    *core.Engine
	store   *storage.Store
	replSrc *client.Client

	// role and the quorum policy are what both serving layers are handed
	// (see servingOpts): who may write, and when a write is acknowledged.
	role          replication.Role
	quorumAcks    int
	quorumTimeout time.Duration
}

// New assembles an engine from the configuration. When DataDir is set, any
// previously persisted state is loaded and all indexes rebuilt.
func New(cfg Config) (*Engine, error) {
	if cfg.ReplicationPrimary && cfg.FollowPrimary != "" {
		return nil, fmt.Errorf("nnexus: ReplicationPrimary and FollowPrimary are mutually exclusive")
	}
	if (cfg.ReplicationPrimary || cfg.FollowPrimary != "") && cfg.DataDir == "" {
		return nil, fmt.Errorf("nnexus: replication requires DataDir")
	}
	clustered := len(cfg.ClusterPeers) > 0
	if clustered {
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("nnexus: ClusterPeers requires DataDir")
		}
		if cfg.AdvertiseAddr == "" {
			return nil, fmt.Errorf("nnexus: ClusterPeers requires AdvertiseAddr")
		}
		if !cfg.ReplicationPrimary && cfg.FollowPrimary == "" {
			return nil, fmt.Errorf("nnexus: ClusterPeers requires an initial role: set ReplicationPrimary or FollowPrimary")
		}
	}
	if cfg.QuorumAcks > 0 {
		if !cfg.ReplicationPrimary && !clustered {
			return nil, fmt.Errorf("nnexus: QuorumAcks requires a node that can serve as primary: set ReplicationPrimary or ClusterPeers")
		}
		if clustered {
			// The election freshness rule only guarantees the winner holds
			// records replicated to a voting majority. A quorum-acked write
			// lives on QuorumAcks+1 nodes (primary + k followers); for it to
			// survive any failover, that set must intersect every possible
			// election majority: QuorumAcks+1 + majority > N. A smaller k
			// would hand clients a "quorum" ack the next leader may not hold
			// — a silent gap between the configured word and the guarantee —
			// so it is rejected here rather than discovered in an outage.
			followers := 0
			for _, a := range cfg.ClusterPeers {
				if a != "" && a != cfg.AdvertiseAddr {
					followers++
				}
			}
			n := followers + 1
			if cfg.QuorumAcks > followers {
				return nil, fmt.Errorf("nnexus: QuorumAcks=%d can never be satisfied by the cluster's %d follower(s)", cfg.QuorumAcks, followers)
			}
			majority := n/2 + 1
			if minAcks := n - majority; cfg.QuorumAcks < minAcks {
				return nil, fmt.Errorf("nnexus: QuorumAcks=%d is below the failover-durability floor for a %d-node cluster: a quorum-acked write must reach at least %d followers to intersect every election majority (QuorumAcks+1+majority > N)", cfg.QuorumAcks, n, minAcks)
			}
		}
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
		if cfg.GroupCommitWindow > 0 {
			opts = append(opts, storage.WithGroupCommitWindow(cfg.GroupCommitWindow))
		}
		// A clustered node may hold either role over its lifetime, so every
		// cluster member keeps the replication record log regardless of its
		// initial role — a freshly promoted follower must be able to serve
		// replSubscribe immediately.
		if cfg.ReplicationPrimary || clustered {
			opts = append(opts, storage.WithReplication())
		}
		var err error
		store, err = storage.Open(cfg.DataDir, opts...)
		if err != nil {
			return nil, err
		}
	}
	// A follower's engine takes no store: its state is fed exclusively by
	// the replication stream (local writes would diverge from the primary's
	// WAL numbering), while the store itself is the replica's durable copy.
	engineStore := store
	if cfg.FollowPrimary != "" {
		engineStore = nil
	}
	ring := cfg.ShardRing
	if cfg.ShardMap != "" {
		m, err := shard.LoadMap(cfg.ShardMap)
		if err != nil {
			if store != nil {
				store.Close()
			}
			return nil, err
		}
		ring = m.Ring()
	}
	eng, err := core.NewEngine(core.Config{
		Scheme:             cfg.Scheme,
		Store:              engineStore,
		Telemetry:          reg,
		Mode:               cfg.Mode,
		Format:             cfg.Format,
		AllowSelfLinks:     cfg.AllowSelfLinks,
		DefaultCorpus:      cfg.DefaultCorpus,
		LinkAllOccurrences: cfg.LinkAllOccurrences,
		LaTeX:              cfg.LaTeX,
		CompileAutomaton:   cfg.CompileAutomaton,
		ShardRing:          ring,
		ShardID:            cfg.ShardID,
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	e := &Engine{core: eng, store: store, quorumAcks: cfg.QuorumAcks, quorumTimeout: cfg.QuorumTimeout}
	switch {
	case clustered:
		// The long-poll must cycle several times per election timeout: a
		// quiet primary's only heartbeat is the empty subscribe return, so a
		// wait as long as the timeout would read as silence and trigger
		// spurious elections.
		et := cfg.ElectionTimeout
		if et <= 0 {
			et = replication.DefaultElectionTimeout
		}
		wait := et / 4
		if wait < 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		if wait > followerWait {
			wait = followerWait
		}
		fopts := []replication.FollowerOption{
			replication.WithStateDir(cfg.DataDir),
			replication.WithFollowerWait(wait),
		}
		if cfg.ReplicaName != "" {
			fopts = append(fopts, replication.WithFollowerName(cfg.ReplicaName))
		}
		e.role.Node, err = replication.NewNode(replication.NodeConfig{
			Self:    cfg.AdvertiseAddr,
			Peers:   cfg.ClusterPeers,
			Store:   store,
			Applier: eng,
			Binder:  eng,
			// Peers are dialed lazily and survive the target being down; the
			// call timeout is sized to the subscribe long-poll like a plain
			// follower's source client.
			Dial: func(addr string) (replication.Peer, error) {
				return client.New(addr, dialTimeout,
					client.WithCallTimeout(wait+3*time.Second),
					client.WithMaxRetries(1)), nil
			},
			InitialPrimary:  cfg.ReplicationPrimary,
			InitialLeader:   cfg.FollowPrimary,
			StateDir:        cfg.DataDir,
			ElectionTimeout: cfg.ElectionTimeout,
			PrimaryOpts:     []replication.PrimaryOption{replication.WithPrimaryTelemetry(reg)},
			FollowerOpts:    fopts,
			Telemetry:       reg,
		})
		if err == nil {
			err = e.role.Node.Start()
		}
		if err != nil {
			store.Close()
			return nil, err
		}
	case cfg.ReplicationPrimary:
		e.role.Primary, err = replication.NewPrimary(store, replication.WithPrimaryTelemetry(reg))
		if err != nil {
			store.Close()
			return nil, err
		}
	case cfg.FollowPrimary != "":
		// The source client is constructed unconnected: a follower must come
		// up (and serve its replayed state) even while the primary is down,
		// catching up once it returns. Its call timeout is sized to the
		// subscribe long-poll so a partitioned (stalled, not refused) link
		// surfaces as a sync failure within seconds, not the generic 30s
		// call timeout; retries stay at one because the follower loop has
		// its own backoff-and-report cycle.
		e.replSrc = client.New(cfg.FollowPrimary, dialTimeout,
			client.WithCallTimeout(followerWait+3*time.Second),
			client.WithMaxRetries(1))
		fopts := []replication.FollowerOption{
			replication.WithLeaderAddr(cfg.FollowPrimary),
			replication.WithStateDir(cfg.DataDir),
			replication.WithFollowerWait(followerWait),
		}
		if cfg.ReplicaName != "" {
			fopts = append(fopts, replication.WithFollowerName(cfg.ReplicaName))
		}
		e.role.Follower, err = replication.NewFollower(store, eng, e.replSrc, fopts...)
		if err == nil {
			err = e.role.Follower.Start()
		}
		if err != nil {
			e.replSrc.Close()
			store.Close()
			return nil, err
		}
	}
	return e, nil
}

// Close stops replication (if any) and flushes and closes the engine's
// persistent store.
func (e *Engine) Close() error {
	e.role.Stop()
	if e.replSrc != nil {
		e.replSrc.Close()
	}
	e.core.Close()
	if e.store == nil {
		return nil
	}
	return e.store.Close()
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

// CorpusUsage returns a corpus's current footprint — its entry count and
// indexed bytes — the numbers tenant quotas are enforced against.
func (e *Engine) CorpusUsage(name string) (entries, bytes int64) {
	return e.core.CorpusUsage(name)
}

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

// ApplyConfig registers the domains and ontology mappers of a parsed
// deployment configuration (see internal/config's package documentation for
// the XML format).
func (e *Engine) ApplyConfig(cfg *DeployConfig) error { return cfg.Apply(e.core) }

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
func (e *Engine) WriteMetrics(w io.Writer) error {
	reg := e.core.Telemetry()
	if reg == nil {
		return nil
	}
	return reg.WritePrometheus(w)
}

// TelemetrySnapshot returns a JSON-friendly snapshot of the engine's
// operational telemetry: scalar metrics as numbers, histograms as
// {count, sum, p50, p90, p99} summaries. Nil when telemetry is disabled.
func (e *Engine) TelemetrySnapshot() map[string]interface{} {
	reg := e.core.Telemetry()
	if reg == nil {
		return nil
	}
	return reg.Snapshot()
}

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
	return e.core.RelinkInvalidatedParallel(workers)
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

// ServerOption configures Serve: deadlines, connection caps, load-shedding
// bounds. See the With* constructors below.
type ServerOption = server.Option

// ClientOption configures Dial: per-call deadlines, retry counts, backoff.
type ClientOption = client.Option

// HTTPOption configures HTTPHandler: health probes and in-flight bounds.
type HTTPOption = httpapi.Option

// HealthState tracks process liveness and readiness for the /healthz and
// /readyz probes; see NewHealthState.
type HealthState = health.State

// NewHealthState returns a health state that is live but not yet ready.
// Wire it into HTTPHandler with WithHealth, mark it ready once serving, and
// mark it draining during shutdown so readiness flips before connections
// close.
func NewHealthState() *HealthState { return health.NewState() }

// Server-side resilience options.

// WithWriteTimeout bounds how long the TCP server may block writing one
// response to a slow or stalled client.
func WithWriteTimeout(d time.Duration) ServerOption { return server.WithWriteTimeout(d) }

// WithHandlerTimeout bounds each request's handler execution; an expired
// handler answers a typed "timeout" error.
func WithHandlerTimeout(d time.Duration) ServerOption { return server.WithHandlerTimeout(d) }

// WithMaxConns caps concurrently served TCP connections; excess connections
// are closed on accept.
func WithMaxConns(n int) ServerOption { return server.WithMaxConns(n) }

// WithMaxActiveRequests bounds concurrently executing requests; excess
// requests are shed with a typed "overloaded" error, which clients retry
// after backoff.
func WithMaxActiveRequests(n int) ServerOption { return server.WithMaxActiveRequests(n) }

// WithMaxPipeline bounds how many requests one connection may execute
// concurrently; responses are serialized by a per-connection writer and
// correlated by Seq. n = 1 reproduces sequential one-request-at-a-time
// handling.
func WithMaxPipeline(n int) ServerOption { return server.WithMaxPipeline(n) }

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

// DisablePipelining is shorthand for WithPipelineWindow(1).
func DisablePipelining() ClientOption { return client.DisablePipelining() }

// Client-side replication routing options.

// ErrNoPrimary is returned by a replica-aware client's write methods when
// the primary is unreachable; reads keep failing over to replicas.
var ErrNoPrimary = client.ErrNoPrimary

// WithReplicas attaches read replicas to a dialed client: reads
// load-balance across caught-up followers, writes pin to the primary, and
// on primary loss reads fail over to followers while writes fail with
// ErrNoPrimary.
func WithReplicas(addrs ...string) ClientOption { return client.WithReplicas(addrs...) }

// WithStalenessBound sets how many records a replica may lag behind the
// primary and still serve routed reads. Must appear after WithReplicas in
// the option list.
func WithStalenessBound(records uint64) ClientOption { return client.WithStalenessBound(records) }

// WithReplicaProbeInterval sets how often replica lag is probed for
// routing. Must appear after WithReplicas in the option list.
func WithReplicaProbeInterval(d time.Duration) ClientOption {
	return client.WithReplicaProbeInterval(d)
}

// HTTP-side resilience options.

// WithHealth wires a health state into GET /healthz and GET /readyz.
func WithHealth(st *HealthState) HTTPOption { return httpapi.WithHealth(st) }

// WithMaxInFlight bounds concurrently served HTTP API requests; excess
// requests get 503 + Retry-After.
func WithMaxInFlight(n int) HTTPOption { return httpapi.WithMaxInFlight(n) }

// Serve starts an XML-protocol TCP server for the engine on addr
// ("host:port"; port 0 picks a free port). The returned bound address can
// be passed to Dial. logger may be nil. Stop it with Server.Close, or drain
// it gracefully with Server.Shutdown.
func (e *Engine) Serve(addr string, logger *log.Logger, opts ...ServerOption) (*Server, string, error) {
	policy, _ := e.servingOpts()
	srv := server.New(e.core, logger, append(opts, policy...)...)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// ServeListener is Serve for a pre-created listener: callers that must know
// their port before the engine exists (e.g. a cluster whose peers advertise
// each other's addresses) bind the listener first and hand it over here.
// The server owns ln from then on.
func (e *Engine) ServeListener(ln net.Listener, logger *log.Logger, opts ...ServerOption) (*Server, string, error) {
	policy, _ := e.servingOpts()
	srv := server.New(e.core, logger, append(opts, policy...)...)
	bound, err := srv.Serve(ln)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// servingOpts hands both serving layers the same replication role and quorum
// policy, so they cannot disagree on who may write or when a write is acked.
func (e *Engine) servingOpts() ([]ServerOption, []HTTPOption) {
	return []ServerOption{
			server.WithReplication(e.role),
			server.WithQuorumAcks(e.quorumAcks, e.quorumTimeout),
		}, []HTTPOption{
			httpapi.WithReplication(e.role),
			httpapi.WithQuorumAcks(e.quorumAcks, e.quorumTimeout),
		}
}

// Dial connects to an NNexus server. The returned client is self-healing:
// it reconnects on broken connections and transparently retries idempotent
// calls (and pre-execution rejections such as load shedding) with
// exponential backoff.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	return client.Dial(addr, dialTimeout, opts...)
}

// Ready reports whether the engine can serve traffic; it currently reflects
// the persistent store (nil for memory-only engines). Wire it into a
// HealthState with AddCheck for readiness probes.
func (e *Engine) Ready() error {
	if e.store == nil {
		return nil
	}
	return e.store.Ready()
}

// ReplicationInfo returns the node's replication detail for readiness
// reporting: role, epoch and head, plus per-follower lag on a primary and
// applied offset / lag / sync state on a follower. Wire it into a
// HealthState with AddInfo("replication", engine.ReplicationInfo) and the
// detail appears in the GET /readyz JSON body.
func (e *Engine) ReplicationInfo() map[string]interface{} { return e.role.Info() }

// ElectionInfo returns the failover state machine's detail for readiness
// reporting — role, election epoch, known leader, fencing status, elections
// run, and last leader contact. Nil when the engine is not clustered. Wire
// it into a HealthState with AddInfo("election", engine.ElectionInfo).
func (e *Engine) ElectionInfo() map[string]interface{} { return e.role.ElectionInfo() }

// HTTPHandler returns an http.Handler exposing the engine as a web service
// (paper §3.4): POST /api/link for on-demand text linking, CRUD under
// /api/entries, and an interactive form at /. Mount it on any mux or server:
//
//	http.ListenAndServe(":8080", engine.HTTPHandler())
//
// The routes run the request pipeline of the socket server's methods: where
// the node is not the primary, mutating routes answer 403 with a JSON body
// naming the leader (the wire protocol's notPrimary), and with QuorumAcks a
// write whose follower quorum is not met answers 503 "quorumUnavailable".
func (e *Engine) HTTPHandler(opts ...HTTPOption) http.Handler {
	_, policy := e.servingOpts()
	return httpapi.New(e.core, append(opts, policy...)...)
}

// LoadShardMap reads and validates a shard-map JSON document.
func LoadShardMap(path string) (*ShardMap, error) { return shard.LoadMap(path) }

// ParseShardMap parses and validates a shard-map JSON document.
func ParseShardMap(data []byte) (*ShardMap, error) { return shard.ParseMap(data) }

// NewShardRing builds the consistent-hash ring for a fleet of the given
// size (vnodes ≤ 0 selects the default virtual-node count).
func NewShardRing(shards, vnodes int) *ShardRing {
	if vnodes <= 0 {
		vnodes = shard.DefaultVnodes
	}
	return shard.NewRing(shards, vnodes)
}

// NewShardRouter builds a scatter-gather router over any ShardBackend —
// in-process engines (LocalShardBackend) or a network fleet (DialSharded
// wraps this).
func NewShardRouter(cfg ShardRouterConfig) (*ShardRouter, error) {
	return core.NewShardRouter(cfg)
}

// ShardedClient couples a ShardRouter with the per-shard network clients
// it routes through, so one Close tears the whole stack down.
type ShardedClient struct {
	*ShardRouter
	backend *client.Sharded
}

// Clients returns the per-shard clients, indexed by shard ID — e.g. to
// drive shard-local methods such as SetPolicy on a label's home shard.
func (s *ShardedClient) Clients() []*Client { return s.backend.Clients }

// Close stops the router's worker pool and closes every shard client.
func (s *ShardedClient) Close() error {
	s.ShardRouter.Close()
	return s.backend.Close()
}

// DialSharded connects to every shard group of a sharded deployment and
// returns a scatter-gather router over the fleet. Each shard's first
// address is its bootstrap primary; additional addresses join as read
// replicas with failover-aware routing (WithReplicas), so shardScan reads
// load-balance across a shard's caught-up followers and putEntry writes
// follow its elected primary. Construction contacts every shard to recover
// the global entry-ID sequence and fails if one is unreachable.
func DialSharded(m *ShardMap, opts ...ClientOption) (*ShardedClient, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	clients := make([]*Client, len(m.Shards))
	for i := range m.Shards {
		spec := &m.Shards[i]
		o := opts
		if len(spec.Addrs) > 1 {
			o = append(append([]ClientOption(nil), opts...), client.WithReplicas(spec.Addrs[1:]...))
		}
		clients[spec.ID] = client.New(spec.Addrs[0], dialTimeout, o...)
	}
	be := client.NewSharded(clients)
	r, err := core.NewShardRouter(core.RouterConfig{Ring: m.Ring(), Backend: be})
	if err != nil {
		be.Close()
		return nil, err
	}
	return &ShardedClient{ShardRouter: r, backend: be}, nil
}

// dialTimeout bounds Dial's connection attempt.
const dialTimeout = 5 * time.Second

// followerWait is the replication subscribe long-poll used by follower
// source clients and cluster peer clients; their call timeout is sized to
// it so a stalled link surfaces within seconds.
const followerWait = 2 * time.Second
