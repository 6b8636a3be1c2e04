// Package core implements the NNexus linking engine: the pipeline of the
// paper's Fig 2. When an entry is linked, its text is scanned for concept
// labels (link source identification), candidate link targets are found in
// the concept map, filtered against the linking policies, steered by
// classification proximity, and the winning candidate for each position is
// substituted into the original text.
//
// The engine also maintains the invalidation index, so that adding or
// changing concepts marks exactly the entries that may need re-linking, and
// persists every table through the storage layer so a deployment survives
// restarts.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nnexus/internal/cache"
	"nnexus/internal/classification"
	"nnexus/internal/conceptmap"
	"nnexus/internal/corpus"
	"nnexus/internal/invindex"
	"nnexus/internal/ontomap"
	"nnexus/internal/render"
	"nnexus/internal/storage"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

// Mode selects how much of the pipeline runs; the three modes correspond to
// the three configurations of the paper's Table 2 evaluation.
type Mode int

const (
	// ModeDefault resolves to ModeSteeredPolicies.
	ModeDefault Mode = iota
	// ModeLexical links by lexical matching only: the first candidate (by
	// domain priority, then object ID) wins. No steering, no policies.
	ModeLexical
	// ModeSteered adds classification-based link steering.
	ModeSteered
	// ModeSteeredPolicies adds entry filtering by linking policies on top
	// of steering — the full deployed configuration.
	ModeSteeredPolicies
)

func (m Mode) String() string {
	switch m {
	case ModeLexical:
		return "lexical"
	case ModeSteered:
		return "steered"
	case ModeSteeredPolicies:
		return "steered+policies"
	default:
		return "default"
	}
}

func (m Mode) resolve() Mode {
	if m == ModeDefault {
		return ModeSteeredPolicies
	}
	return m
}

// renderedCacheSize bounds the rendered-output cache.
const renderedCacheSize = 4096

// Storage table names.
const (
	tableEntries = "entries"
	tableDomains = "domains"
	tableMeta    = "meta"
	tableInvalid = "invalid"
)

// Config configures an Engine.
type Config struct {
	// Scheme is the canonical classification scheme used for steering.
	// Required.
	Scheme *classification.Scheme
	// Store persists the engine's tables. Nil runs memory-only.
	Store *storage.Store
	// Format is the default output format for substituted links.
	Format render.Format
	// LinkAllOccurrences links every occurrence of a label instead of the
	// deployed behaviour of linking only the first occurrence
	// ("NNexus only links the first occurrence of a term or phrase to
	// reduce visual clutter").
	LinkAllOccurrences bool
	// LaTeX, when set, converts entry bodies and free text from LaTeX
	// markup to plain text (see the latex package) before scanning —
	// Noosphere entries are written in TeX.
	LaTeX bool
	// Telemetry is the metrics registry the engine instruments itself
	// into; the serving layers (httpapi, server) register their own
	// families on the same registry. Nil creates a fresh registry.
	Telemetry *telemetry.Registry
	// CompileAutomaton starts the concept map's background compiler, which
	// rebuilds an immutable Aho-Corasick automaton after maintenance
	// writes (debounced, off the write path) and serves scans from it
	// whenever it matches the current snapshot generation, falling back to
	// the chained-hash scan whenever it trails. Results are identical
	// either way; the automaton is purely a match-stage throughput win.
	// Call Close to stop the compiler goroutine.
	CompileAutomaton bool
	// DefaultCorpus is the corpus namespace entries and link requests fall
	// into when they name none. Empty means corpus.DefaultCorpus, which
	// keeps single-corpus deployments unchanged.
	DefaultCorpus string
}

// namespace is one corpus's isolated index family: its own concept map
// (and therefore its own compiled automaton and snapshot generations) and
// its own invalidation index. Hot-corpus writes touch only their own
// namespace, so a write
// burst in one corpus never recompiles (or even dirties) another corpus's
// automaton.
type namespace struct {
	name string
	cmap *conceptmap.Map
	// w is the concept-map generation the running mutation writes, nil
	// outside one; guarded by the engine's mu (see writerLocked).
	w   *conceptmap.Writer
	inv *invindex.Index
}

// indexOptions configure every namespace's invalidation index, built or read.
var indexOptions = []invindex.Option{invindex.WithAutoCompact(invindex.DefaultCompactEvery, invindex.DefaultCompactBelow)}

func newNamespace(name string) *namespace {
	return &namespace{name: name, cmap: conceptmap.New(), inv: invindex.New(indexOptions...)}
}

// Engine is a fully assembled NNexus instance. All methods are safe for
// concurrent use.
type Engine struct {
	cfg    Config
	scheme *classification.Scheme
	store  *storage.Store
	// ns is the copy-on-write corpus → namespace table. Namespaces are
	// created on first write to a corpus and never removed, the same COW
	// shape as the domain table: lock-free loads on the link path, copied
	// publishes under mu.
	ns               atomic.Pointer[map[string]*namespace]
	compilersStarted bool
	mappers          *ontomap.Registry
	// rendered caches default-pipeline LinkEntry results until the
	// invalidation machinery marks them stale (the paper's cache table).
	rendered *cache.LRU[int64, *Result]

	// tel holds the operational telemetry instruments.
	tel *engineTelemetry

	// domains is copy-on-write: the current immutable generation of the
	// domain table is loaded lock-free by readers, while writers (serialized
	// by mu) publish a copied map. Domains are few and change rarely, the
	// ideal COW shape; the link path reads each candidate's domain off its
	// stored entry instead.
	domains atomic.Pointer[map[string]*corpus.Domain]

	mu sync.RWMutex
	// entries is the entry table: each entry beside the resolve state
	// derived from it (storedEntry), replaced whole on every change.
	entries map[int64]*storedEntry
	// invalid maps each entry flagged for re-linking to the write sequence
	// of the mutation that last flagged it.
	invalid map[int64]uint64
	nextID  int64
	// records is commitLocked's scratch: the store copies every value it
	// keeps, so the next mutation writes its records over this one's.
	records []byte
	// seq is the write sequence: the number of mutations published. A
	// mutation stamps the flags it raises and the entries it stores with
	// seq+1 and advances seq under mu once it has published. A link of a
	// stored entry reads seq before it pins, so a stamp above what it read
	// marks a write the link did not see (clearInvalid, LinkEntryCached).
	seq atomic.Uint64
	// rederived is the write sequence of the last change to the domain table
	// or the mappers, which drops every rendering: a link that read an
	// earlier sequence may have rendered an old URL or class, so its
	// rendering is not cached.
	rederived uint64
	// replaying is set while load replays the store, which leaves the
	// invalidation indexes to fillIndexes; indexesRead says whether that
	// found the ones the last clean Close saved.
	replaying, indexesRead bool
	// failed holds the error every call returns once a commit has failed
	// (see ErrFailed); empty until then.
	failed atomic.Value
}

// ErrFailed is what every call of an engine returns once one of its commits
// has failed: the refused write is applied in memory but not in the log, and
// what reached the disk cannot be known, so the engine serves nothing until a
// reopen replays the log. A caller must not retry on it.
var ErrFailed = errors.New("core: engine stopped after a failed commit; reopen it to serve again")

// Failed returns the error every call returns once a commit has failed, nil
// before: it wraps ErrFailed and the commit's own error.
func (e *Engine) Failed() error {
	err, _ := e.failed.Load().(error)
	return err
}

// Validate reports a configuration NewEngine would refuse, without building
// anything: whoever opens a store for the engine checks here first.
func (cfg *Config) Validate() error {
	if cfg.Scheme == nil {
		return fmt.Errorf("core: Config.Scheme is required")
	}
	if !cfg.Scheme.Built() {
		return fmt.Errorf("core: Config.Scheme must be built")
	}
	return nil
}

// NewEngine assembles an engine. If cfg.Store is non-nil, previously
// persisted domains, entries, policies, and invalidation flags are loaded
// and all in-memory indexes rebuilt.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		scheme:   cfg.Scheme,
		store:    cfg.Store,
		mappers:  ontomap.NewRegistry(),
		rendered: cache.NewLRU[int64, *Result](renderedCacheSize),
		entries:  make(map[int64]*storedEntry),
		invalid:  make(map[int64]uint64),
		nextID:   1,
	}
	// The default corpus's namespace exists from birth.
	defNS := newNamespace(e.DefaultCorpus())
	e.ns.Store(&map[string]*namespace{defNS.name: defNS})
	e.domains.Store(&map[string]*corpus.Domain{})
	e.tel = newEngineTelemetry(e, cmp.Or(cfg.Telemetry, telemetry.NewRegistry()))
	if e.store != nil {
		if err := e.load(); err != nil {
			return nil, err
		}
	}
	if cfg.CompileAutomaton {
		// Start after load so the initial bulk of AddObject calls compiles
		// once instead of once per loaded entry; the observer must be in
		// place first so no build goes unrecorded. Every loaded corpus gets
		// its own compiler — namespaces compile independently, so a hot
		// corpus's write bursts never trigger a cold corpus's rebuild.
		for _, n := range e.nsMap() {
			n.cmap.SetBuildObserver(e.tel.observeAutomatonBuild)
			n.cmap.StartCompiler(automatonDebounce)
		}
		e.compilersStarted = true
	}
	return e, nil
}

// DefaultCorpus returns the corpus namespace unqualified requests and
// entries fall into.
func (e *Engine) DefaultCorpus() string {
	return corpus.CorpusOrDefault(e.cfg.DefaultCorpus)
}

// normalizeCorpus resolves an entry's empty corpus ID to the engine
// default, the single normalization point of the ingest paths.
func (e *Engine) normalizeCorpus(entry *corpus.Entry) {
	if entry.Corpus == "" {
		entry.Corpus = e.DefaultCorpus()
	}
}

// nsMap returns the current immutable corpus → namespace generation.
func (e *Engine) nsMap() map[string]*namespace { return *e.ns.Load() }

// nsFor returns a corpus's namespace, or nil when the corpus has never
// been written. Lock-free; the link path's per-request lookup.
func (e *Engine) nsFor(name string) *namespace { return e.nsMap()[name] }

// nsEnsureLocked returns a corpus's namespace, creating and publishing it
// on first sight. Callers hold e.mu (or run single-threaded construction).
func (e *Engine) nsEnsureLocked(name string) *namespace {
	if n := e.nsMap()[name]; n != nil {
		return n
	}
	n := newNamespace(name)
	if e.cfg.CompileAutomaton && e.compilersStarted {
		n.cmap.SetBuildObserver(e.tel.observeAutomatonBuild)
		n.cmap.StartCompiler(automatonDebounce)
	}
	next := maps.Clone(e.nsMap())
	next[name] = n
	e.ns.Store(&next)
	return n
}

// EntrySize is the byte size of an entry's indexed text: its title, body,
// concept labels and class codes, the user bytes a write stores.
func EntrySize(e *corpus.Entry) int64 {
	n := len(e.Title) + len(e.Body)
	for _, c := range e.Concepts {
		n += len(c)
	}
	for _, c := range e.Classes {
		n += len(c)
	}
	return int64(n)
}

// Corpora returns the corpus namespaces the engine holds, sorted.
func (e *Engine) Corpora() []string { return sortedKeys(e.nsMap()) }

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// automatonDebounce is how long the background automaton compiler waits
// after a maintenance write before rebuilding, so write bursts (imports,
// batch updates) coalesce into one compile.
const automatonDebounce = 25 * time.Millisecond

// Close releases the engine's background resources (every namespace's
// automaton compiler goroutine) and, unless a commit has failed, saves the
// invalidation indexes beside the store for the next open to read instead of
// rebuilding them. The engine must not be used after Close; it does not close
// the storage layer, which the caller owns and closes after it.
func (e *Engine) Close() error {
	for _, n := range e.nsMap() {
		n.cmap.StopCompiler()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil || e.Failed() != nil {
		return nil
	}
	return e.saveIndexesLocked()
}

// load rebuilds in-memory state from the store. Crash recovery is a
// follower's snapshot bootstrap from the engine's own store: the export
// orders tables domains → entries → invalid → meta and entries by ID. The
// invalidation indexes the last clean Close saved at the position the export
// is at are read meanwhile, and built from the entries only when there are
// none.
func (e *Engine) load() error {
	ops, head, epoch, err := e.store.ExportState()
	if err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	read := make(chan map[string]*invindex.Index, 1)
	go func() { read <- e.readIndexes(head, epoch) }()
	e.replaying = true
	err = e.ApplyReplicated(ops)
	e.replaying = false
	e.fillIndexes(<-read)
	return err
}

// AttachStore binds a persistent store to a running engine, so subsequent
// mutations persist (and, with replication enabled on the store, append to
// the streamed WAL history). Leader election uses it when a follower —
// whose engine runs storeless, fed by the replication stream — wins an
// election and promotes: its already-live in-memory state matches the
// store's replayed state, so no reload is needed, only the binding.
func (e *Engine) AttachStore(st *storage.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = st
}

// DetachStore unbinds the engine's persistent store, returning it to the
// storeless follower shape: mutations no longer persist locally, so a
// demoted primary cannot diverge its WAL from the new leader's history
// while the replication stream takes over feeding both store and engine.
func (e *Engine) DetachStore() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = nil
}

// domainMap returns the current immutable domain-table generation. The
// returned map must not be mutated.
func (e *Engine) domainMap() map[string]*corpus.Domain { return *e.domains.Load() }

// putDomain publishes a new domain-table generation containing d, and
// rederives the resolve state of the domain's entries: its scheme decides
// their class translation and its template their URLs. Callers must hold
// e.mu (or run during single-threaded construction) so that concurrent
// writers do not lose each other's generations.
func (e *Engine) putDomain(d *corpus.Domain) {
	next := maps.Clone(e.domainMap())
	next[d.Name] = d
	e.domains.Store(&next)
	e.rederiveLocked(func(s *storedEntry) bool { return s.Domain == d.Name })
}

// AddDomain registers (or replaces) a corpus domain.
func (e *Engine) AddDomain(d corpus.Domain) error {
	if d.Name == "" {
		return fmt.Errorf("core: domain needs a name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.Failed(); err != nil {
		return err
	}
	copied := d
	wire.Canonical(&copied)
	e.putDomain(&copied)
	return e.commitLocked(&changeSet{domain: &copied})
}

// Domain returns a registered domain by name. A failed engine has none.
func (e *Engine) Domain(name string) (*corpus.Domain, bool) {
	d, ok := e.domainMap()[name]
	if !ok || e.Failed() != nil {
		return nil, false
	}
	copied := *d
	return &copied, true
}

// Domains returns the names of all registered domains, sorted; none for a
// failed engine.
func (e *Engine) Domains() []string {
	if e.Failed() != nil {
		return nil
	}
	return sortedKeys(e.domainMap())
}

// RegisterMapper installs an ontology mapper used to translate a foreign
// domain's classes into the engine's canonical scheme, and retranslates the
// classes of every entry whose domain is in the mapper's source scheme. The
// entries' translations are taken at registration: rules added to a mapper
// after it is registered apply once it is registered again.
func (e *Engine) RegisterMapper(m *ontomap.Mapper) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.Failed(); err != nil {
		return err
	}
	if err := e.mappers.Register(m); err != nil {
		return err
	}
	e.rederiveLocked(func(s *storedEntry) bool { return s.domain != nil && s.domain.Scheme == m.From })
	// No record to commit, but a write all the same: a link that read the
	// sequence before it must not cache what it rendered.
	e.seq.Add(1)
	return nil
}

// AddEntry validates, stores, and indexes a new entry, assigns it an
// engine-wide ID, and invalidates every existing entry that may now need
// re-linking because it mentions one of the new entry's concept labels.
// The entry's ID field is set on success.
func (e *Engine) AddEntry(entry *corpus.Entry) (int64, error) {
	ids, err := e.AddEntries([]*corpus.Entry{entry})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// UpdateEntry replaces an existing entry's metadata and body, re-indexes
// it, and invalidates entries affected by its (possibly changed) labels.
func (e *Engine) UpdateEntry(entry *corpus.Entry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.Failed(); err != nil {
		return err
	}
	if err := e.admitLocked(entry); err != nil {
		return err
	}
	if _, ok := e.entries[entry.ID]; !ok {
		return fmt.Errorf("core: update of unknown entry %d", entry.ID)
	}
	e.tel.opUpdateEntry.Inc()
	return e.storeLocked(entry)
}

// RemoveEntry deletes an entry and invalidates entries that linked (or
// could have linked) to its concepts.
func (e *Engine) RemoveEntry(id int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.Failed(); err != nil {
		return err
	}
	var ch changeSet
	if !e.removeLocked(&ch, id) {
		return fmt.Errorf("core: remove of unknown entry %d", id)
	}
	e.tel.opRemoveEntry.Inc()
	return e.commitLocked(&ch)
}

// SetPolicy installs (or with empty text removes) the linking policy of an
// entry, as an administrator or author would (paper §2.4).
func (e *Engine) SetPolicy(id int64, text string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.Failed(); err != nil {
		return err
	}
	old, ok := e.entries[id]
	if !ok {
		return fmt.Errorf("core: policy for unknown entry %d", id)
	}
	// Replace rather than mutate in place: the old entry may be captured
	// by an in-flight lock-free link view.
	next := *old
	next.Policy = text
	wire.Canonical(&next.Entry)
	pol, err := parsePolicy(next.Policy)
	if err != nil {
		return err
	}
	next.policy = pol
	e.entries[id] = &next
	// Policy changes alter which links are permitted; everything that
	// mentions this entry's labels may need re-linking. The text did not
	// change, so the apply stage is the copy above, not a re-index.
	copied := next.Entry
	ch := changeSet{entries: []*corpus.Entry{&copied}}
	e.invalidateLocked(&ch, id, copied.Labels(), nil)
	e.tel.opSetPolicy.Inc()
	return e.commitLocked(&ch)
}

// Entry returns a copy of the entry with the given ID. A failed engine has
// none.
func (e *Engine) Entry(id int64) (*corpus.Entry, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	entry, ok := e.entries[id]
	if !ok || e.Failed() != nil {
		return nil, false
	}
	copied := entry.Entry
	return &copied, true
}

// Entries returns all entry IDs, sorted; none for a failed engine.
func (e *Engine) Entries() []int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.Failed() != nil {
		return nil
	}
	return sortedKeys(e.entries)
}

// NumEntries returns the number of entries; 0 for a failed engine.
func (e *Engine) NumEntries() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.Failed() != nil {
		return 0
	}
	return len(e.entries)
}

// NumConcepts returns the number of distinct concept labels indexed,
// summed across every corpus namespace.
func (e *Engine) NumConcepts() int {
	total := 0
	for _, n := range e.nsMap() {
		total += n.cmap.Labels()
	}
	return total
}

// AutomatonInfo reports the default corpus's compiled-automaton state:
// whether one is published, how far it trails the snapshot generation, its
// size, and the scan-path counters. Useful for diagnostics and readiness
// checks; the nnexus_automaton_* and nnexus_scan_* families cover every
// corpus.
func (e *Engine) AutomatonInfo() conceptmap.AutomatonInfo {
	return e.nsFor(e.DefaultCorpus()).cmap.AutomatonInfo()
}

// Scheme returns the engine's canonical classification scheme.
func (e *Engine) Scheme() *classification.Scheme { return e.scheme }

// Invalidated returns the IDs of entries marked for re-linking, sorted; none
// for a failed engine.
func (e *Engine) Invalidated() []int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.Failed() != nil {
		return nil
	}
	return sortedKeys(e.invalid)
}

// clearInvalid drops the invalidation flags of entries re-linked by a run
// that read write sequence seq before it pinned, as one record however many
// were flagged. A flag raised after seq stays: the run did not see the
// write that raised it. The steady state — nothing flagged — is checked
// under a read lock so hot re-renders of valid entries never serialize on
// the write lock or touch the store.
func (e *Engine) clearInvalid(seq uint64, ids ...int64) {
	seen := func(id int64) bool {
		s, ok := e.invalid[id]
		return ok && s <= seq
	}
	e.mu.RLock()
	flagged := slices.ContainsFunc(ids, seen)
	e.mu.RUnlock()
	if !flagged {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var ch changeSet
	for _, id := range ids {
		if seen(id) {
			delete(e.invalid, id)
			ch.cleared = append(ch.cleared, id)
		}
	}
	// A failed commit stops the engine; the caller's link stands.
	_ = e.commitLocked(&ch)
}

func entryKey(id int64) string { return fmt.Sprintf("%016d", id) }
