package core

import (
	"time"

	"nnexus/internal/render"
)

// Link is one hyperlink the engine decided to create.
type Link struct {
	// Label is the normalized concept label that matched.
	Label string `json:"label"`
	// Start/End delimit the link source in the input text (bytes).
	Start int `json:"start"`
	End   int `json:"end"`
	// Text is the raw matched text.
	Text string `json:"text"`
	// Target identifies the chosen link target entry.
	Target int64 `json:"target"`
	// TargetDomain and TargetTitle describe the target.
	TargetDomain string `json:"targetDomain"`
	TargetTitle  string `json:"targetTitle"`
	// URL is the rendered link destination.
	URL string `json:"url"`
	// Distance is the classification distance used by steering
	// (classification.Infinite when steering could not discriminate).
	Distance int64 `json:"distance"`
	// Candidates is how many target objects competed for this source.
	Candidates int `json:"candidates"`
}

// Skip records a concept match that was deliberately not linked.
type Skip struct {
	Label  string `json:"label"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
	Reason string `json:"reason"`
}

// Skip reasons.
const (
	SkipPolicy    = "policy"    // every candidate forbidden by linking policies
	SkipSelf      = "self"      // only candidate was the source entry itself
	SkipDuplicate = "duplicate" // label already linked earlier in the entry
	SkipNoDomain  = "nodomain"  // winning candidate domain not registered
)

// Result is the outcome of linking one text or entry.
type Result struct {
	// Source is the linked entry's ID (0 when free text was linked).
	Source int64 `json:"source,omitempty"`
	// Output is the text with links substituted in.
	Output string `json:"output"`
	// Links are the created links in text order.
	Links []Link `json:"links,omitempty"`
	// Skips are suppressed matches, for diagnostics and evaluation.
	Skips []Skip `json:"skips,omitempty"`
}

// LinkOptions controls a single linking operation.
type LinkOptions struct {
	// SourceClasses are the subject classes of the link source document.
	SourceClasses []string
	// SourceScheme names the scheme of SourceClasses; empty means the
	// engine's canonical scheme.
	SourceScheme string
	// SourceCorpus names the corpus on whose behalf the request links;
	// empty means the engine's default corpus. It selects the default
	// (self) link target and the per-tenant accounting label.
	SourceCorpus string
	// TargetCorpora is the ordered link policy: the corpora whose concept
	// maps the text is linked against, earlier corpora winning equal-span
	// candidate order. Empty means self-linking (the source corpus only) —
	// the single-corpus behaviour. Cross-corpus steering works through the
	// ontology mappers: a foreign corpus's entries have their classes
	// translated into the canonical scheme before distances are measured.
	TargetCorpora []string
	// ExcludeObject suppresses one object as a link target (the source
	// entry itself, when linking an entry).
	ExcludeObject int64
	// Mode overrides the engine's configured pipeline mode.
	Mode Mode
	// Format overrides the engine's configured output format.
	Format *render.Format
}

// LinkText runs the full linking pipeline over free text: tokenize with
// escaping, find candidate links in the concept map, filter by linking
// policies, steer by classification, substitute the winners.
//
// The pipeline reads are lock-free or single-shot: the concept-map scan
// reads an immutable snapshot, the candidate entries — each with its parsed
// policy, canonical class indexes, domain and URL — are captured once per
// call, and steering distances are walks up the scheme's read-only tree,
// so concurrent LinkText calls scale with cores instead of convoying on the
// engine mutex.
//
// Every run is timed per pipeline stage into the engine's registry:
// tokenize, match and render always, and policy and steer — which read the
// clock per concept match — for one run in sampleEvery.
func (e *Engine) LinkText(text string, opts LinkOptions) (*Result, error) {
	if err := e.Failed(); err != nil {
		return nil, err
	}
	return e.link(e.plan(&opts), text)
}

// LinkEntry links a stored entry's body against the whole collection,
// excluding the entry itself as a target, and clears its invalidation flag
// unless a write the link did not see raised it.
func (e *Engine) LinkEntry(id int64, opts LinkOptions) (*Result, error) {
	res, _, err := e.linkEntry(id, opts)
	return res, err
}

// linkEntry is LinkEntry, also returning the write sequence the link read
// before it planned and pinned.
func (e *Engine) linkEntry(id int64, opts LinkOptions) (*Result, uint64, error) {
	if err := e.Failed(); err != nil {
		return nil, 0, err
	}
	seq := e.seq.Load()
	p, body, err := e.planEntry(id, opts)
	if err != nil {
		return nil, 0, err
	}
	res, err := e.link(p, body)
	if err != nil {
		return nil, 0, err
	}
	e.relinked(seq, id)
	return res, seq, nil
}

// relinked records completed entry links of a run that read write sequence
// seq: counters, and the entries' invalidation flags cleared together.
func (e *Engine) relinked(seq uint64, ids ...int64) {
	e.tel.opLinkEntry.Add(int64(len(ids)))
	e.clearInvalid(seq, ids...)
}

// LinkEntryCached is LinkEntry backed by the rendered-output cache table
// (paper §2.5): a default-pipeline rendering is served from cache until the
// invalidation index marks the entry stale. Non-default options bypass the
// cache entirely. The second return reports whether the result was cached.
func (e *Engine) LinkEntryCached(id int64) (*Result, bool, error) {
	if err := e.Failed(); err != nil {
		return nil, false, err
	}
	e.mu.RLock()
	_, stale := e.invalid[id]
	e.mu.RUnlock()
	if !stale {
		if res, ok := e.rendered.Get(id); ok {
			return res, true, nil
		}
	}
	res, seq, err := e.linkEntry(id, LinkOptions{})
	if err != nil {
		return nil, false, err
	}
	e.cache(id, seq, res)
	return res, false, nil
}

// cache keeps res, the rendering of entry id by a link that read write
// sequence seq, unless a later write rewrote or flagged the entry or changed
// the domain table or the mappers: the rendering is then stale, and the
// write's drop of the cached one has already happened. The check and the
// Put are one step under e.mu.
func (e *Engine) cache(id int64, seq uint64, res *Result) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, ok := e.entries[id]
	if !ok || s.seq > seq || e.rederived > seq {
		return
	}
	if flag, flagged := e.invalid[id]; flagged && flag > seq {
		return
	}
	e.rendered.Put(id, res)
}

// CacheStats returns cumulative hit/miss counts of the rendered cache.
func (e *Engine) CacheStats() (hits, misses int64) {
	return e.rendered.Stats()
}

// RelinkInvalidated re-links every invalidated entry and returns their
// results, keyed by entry ID. On error the results completed so far are
// returned alongside it; the abort is chunk-granular (see RelinkBatch), so
// the remaining entries of the chunk in flight when the first error occurs
// are still relinked (and their invalidation cleared) before the run stops.
func (e *Engine) RelinkInvalidated() (map[int64]*Result, error) {
	// One single-worker run of the shared-view batch path: each chunk of
	// entries captures one candidate view under one read lock instead of
	// re-capturing per entry, with the same error semantics and telemetry
	// as the parallel path.
	return e.RelinkBatch(nil, 1)
}

// finishRelink folds one completed (or aborted) relink batch into the
// telemetry counters: relinked entries and errors always reflect the work
// actually performed, even when a batch aborts early.
func (e *Engine) finishRelink(start time.Time, relinked, errors int) {
	e.tel.relinkEntries.Add(int64(relinked))
	e.tel.relinkErrors.Add(int64(errors))
	e.tel.relinkDuration.Observe(time.Since(start).Seconds())
}

func (e *Engine) domainScheme(domain string) string {
	if d, ok := e.domainMap()[domain]; ok {
		return d.Scheme
	}
	return ""
}

func schemeOr(name, fallback string) string {
	if name == "" {
		return fallback
	}
	return name
}
