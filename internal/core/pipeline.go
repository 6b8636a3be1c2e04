package core

// The Fig 2 linking pipeline, one stage per function. Every link entry
// point is a composition of these and owns no per-match loop of its own:
//
//	plan      LinkOptions resolved once: mode, format, canonical source
//	          classes, source corpus, ordered targets, exclude
//	scan      tokens → concept matches (greedy, or the longest match at
//	          every position when a later walk consumes)
//	capture   every candidate entry of N match slices under one RLock, each
//	          with its write-time resolve state (storedEntry)
//	resolve   chooseTarget: policy filter, steering, tie-break, from the
//	          captured entries alone: no lock, no string-keyed map
//	assemble  greedy walk, first-occurrence rule, anchors, render.Apply
//
//	Engine.LinkText       plan + scan + capture(1) + assemble
//	Engine.LinkEntry      the same, planned from the stored entry
//	runBatch              the same per item, around one shared capture

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"nnexus/internal/classification"
	"nnexus/internal/conceptmap"
	"nnexus/internal/corpus"
	"nnexus/internal/latex"
	"nnexus/internal/render"
	"nnexus/internal/tokenizer"
)

// linkPlan is a request's LinkOptions resolved once against the engine.
type linkPlan struct {
	mode   Mode
	format render.Format
	// classes are the source classes translated to the canonical scheme,
	// which policies match; classIdx are the same as scheme node indexes,
	// which steering measures from.
	classes  []string
	classIdx []int32
	// source is the corpus the request links on behalf of: the self-link
	// target and the per-tenant accounting label.
	source string
	// target is the one corpus the text links against: the source corpus
	// (self-linking) unless the link policy names another. A policy of
	// several corpora sets targets, in policy order, and rank — each
	// target's position, so earlier targets win equal-priority tie-breaks —
	// instead; both stay nil on the single-target path, which keeps it free
	// of allocations and map lookups.
	target  string
	targets []string
	rank    map[string]int
	exclude int64
	// entry is the stored entry whose body is being linked (0 for free text).
	entry int64
}

// plan resolves opts: the default mode is the full pipeline, the format
// defaults to the engine's, the source classes translate to the canonical
// scheme, an unnamed source corpus is the engine default, and an empty
// target list means self-linking.
func (e *Engine) plan(opts *LinkOptions) linkPlan {
	p := linkPlan{mode: opts.Mode.resolve(), format: opts.formatOr(e.cfg.Format), source: opts.SourceCorpus, exclude: opts.ExcludeObject}
	// Classes already in the canonical scheme are the request's own slice:
	// the plan only reads them.
	p.classes = opts.SourceClasses
	if from := schemeOr(opts.SourceScheme, e.scheme.Name()); from != e.scheme.Name() {
		p.classes = e.mappers.Translate(from, opts.SourceClasses, e.scheme.Name())
	}
	p.classIdx = e.scheme.AppendIndexes(nil, p.classes)
	if p.source == "" {
		p.source = e.DefaultCorpus()
	}
	switch len(opts.TargetCorpora) {
	case 0:
		p.target = p.source
	case 1:
		p.target = corpus.CorpusOrDefault(opts.TargetCorpora[0])
	default:
		// A repeated name keeps its first position only: a second scan would
		// report its candidates twice, and the caller chooses the length.
		p.targets = make([]string, 0, len(opts.TargetCorpora))
		p.rank = make(map[string]int, len(opts.TargetCorpora))
		for _, t := range opts.TargetCorpora {
			t = corpus.CorpusOrDefault(t)
			if _, ok := p.rank[t]; !ok {
				p.rank[t] = len(p.targets)
				p.targets = append(p.targets, t)
			}
		}
		if len(p.targets) == 1 {
			p.target, p.targets, p.rank = p.targets[0], nil, nil
		}
	}
	return p
}

// formatOr returns the request's output format, or def when it names none.
func (o *LinkOptions) formatOr(def render.Format) render.Format {
	if o.Format != nil {
		return *o.Format
	}
	return def
}

// planEntry plans the linking of a stored entry's body: the entry excludes
// itself as a target, links on behalf of its own corpus, and steers by its
// own classes unless opts names others.
func (e *Engine) planEntry(id int64, opts LinkOptions) (linkPlan, string, error) {
	entry, ok := e.Entry(id)
	if !ok {
		return linkPlan{}, "", fmt.Errorf("core: link of unknown entry %d", id)
	}
	opts.ExcludeObject = id
	if opts.SourceCorpus == "" {
		opts.SourceCorpus = entry.Corpus
	}
	if len(opts.SourceClasses) == 0 {
		opts.SourceClasses = entry.Classes
		if opts.SourceScheme == "" {
			opts.SourceScheme = e.domainScheme(entry.Domain)
		}
	}
	p := e.plan(&opts)
	p.entry = id
	return p, entry.Body, nil
}

// linkRun is one text moving through the pipeline: its plan, its per-stage
// state, and the scratch the stages reuse. Instances are pooled, which cuts
// the steady-state allocation count of the hot path.
type linkRun struct {
	e    *Engine
	plan linkPlan
	text string // after LaTeX conversion
	view linkView
	// st is the run's per-stage wall time, observed by finish.
	st stageTimes

	// pins are the concept-map generations the scan reads, one per target
	// corpus in plan order (see pin).
	pins    []conceptmap.Pinned
	tokens  []tokenizer.Token
	matches []conceptmap.Match
	// multi/multiOrigin are the multi-target scan scratch: the per-target
	// all-position matches and, parallel to them, the index of the target
	// that produced each.
	multi       []conceptmap.Match
	multiOrigin []int
	// mergeIdx is mergeSpans' sort permutation.
	mergeIdx []int
	// entries is the candidate snapshot of a single-run captureView.
	entries map[int64]*storedEntry
	// cands/dists are chooseTarget's per-match scratch: the candidate
	// entries and, parallel to them, their distances from the source.
	cands []*storedEntry
	dists []int64
	// linked/anchors are assemble's first-occurrence set and anchor scratch.
	linked  map[string]bool
	anchors []render.Anchor
}

var linkRunPool = sync.Pool{
	New: func() interface{} {
		return &linkRun{
			linked:  make(map[string]bool, 16),
			entries: make(map[int64]*storedEntry, 32),
		}
	},
}

func (e *Engine) getRun() *linkRun {
	run := linkRunPool.Get().(*linkRun)
	run.e = e
	return run
}

// maxPooledTokens bounds the token and match buffers a run may take back to
// the pool. The benchmark's 5 KB documents need under 1,000 tokens; a run
// that served a far larger text is left to the collector, so that one 32 MiB
// request cannot leave a quarter-gigabyte token buffer in circulation.
const maxPooledTokens = 8192

func putRun(run *linkRun) {
	if run.reset() {
		linkRunPool.Put(run)
	}
}

// reset clears the per-run state, dropping every pointer into engine or
// request state — tokens alias the request text, matches an automaton
// generation, candidates the entries — so that a pooled run pins none of
// them. It reports whether the run's buffers are small enough to pool. Every
// buffer is zero past its length (each reset clears what its run used), so
// clearing up to the length in use leaves the whole capacity zero.
func (run *linkRun) reset() bool {
	run.e, run.plan, run.text, run.view, run.st = nil, linkPlan{}, "", linkView{}, stageTimes{}
	if max(cap(run.tokens), cap(run.matches), cap(run.multi)) > maxPooledTokens {
		return false
	}
	clear(run.pins)
	clear(run.tokens)
	clear(run.matches)
	clear(run.multi)
	clear(run.cands[:cap(run.cands)])
	clear(run.anchors)
	run.pins, run.tokens, run.matches, run.multi = run.pins[:0], run.tokens[:0], run.matches[:0], run.multi[:0]
	clear(run.entries)
	clear(run.linked)
	return true
}

// scanText is the pipeline's front half for one text: LaTeX conversion,
// tokenization, and the scan against the plan's targets. The targets'
// generations are pinned before the text is tokenized (see pin).
func (e *Engine) scanText(run *linkRun, text string) {
	run.st.timed = e.tel.sampleRun()
	mark := time.Now()
	if e.cfg.LaTeX {
		text = latex.ToText(text)
	}
	run.text = text
	e.pin(run)
	run.tokens = tokenizer.TokenizeAppend(run.tokens, text)
	now := time.Now()
	run.st.tokenize = now.Sub(mark)
	run.st.matchAutomaton = e.scan(run)
	run.st.match = time.Since(now)
}

// pin takes into run.pins the concept-map generation of each of the plan's
// target corpora, a zero one for a corpus with no namespace: what the run's
// scan reads. Every label's words are in the vocabulary before the label is
// published, so a text tokenized after pin resolves every word of every
// label the pinned generations hold, and a token that resolved to no word
// is in none of them (conceptmap.Pinned). A link is thus exact against the
// labels published before it began; one published while it runs is not
// seen.
func (e *Engine) pin(run *linkRun) {
	run.pins = run.pins[:0]
	if run.plan.targets == nil {
		run.pins = append(run.pins, e.pinOf(run.plan.target))
		return
	}
	for _, t := range run.plan.targets {
		run.pins = append(run.pins, e.pinOf(t))
	}
}

// pinOf is a corpus's concept-map generation, zero when it has no namespace.
func (e *Engine) pinOf(corpus string) conceptmap.Pinned {
	if ns := e.nsFor(corpus); ns != nil {
		return ns.cmap.Pin()
	}
	return conceptmap.Pinned{}
}

// scan matches the run's tokens against the plan's target corpora, into
// run.matches.
//
// One target, the default, goes straight to its namespace's greedy
// leftmost-longest scan — automaton-served when current — so a one-corpus
// deployment scans exactly as the pre-tenancy engine did. Several targets
// scan the longest match at every token position and merge into what one
// map holding the union of their labels would report; assemble's greedy
// walk then does the consuming. An unknown target corpus contributes
// nothing. The run's pins are the generations scanned.
func (e *Engine) scan(run *linkRun) (usedAutomaton bool) {
	if run.plan.targets == nil {
		run.matches, usedAutomaton = run.pins[0].ScanAppendAuto(run.matches, run.tokens)
		return usedAutomaton
	}
	spans, origin := run.multi[:0], run.multiOrigin[:0]
	for ti, p := range run.pins {
		spans = p.ScanAllAppend(spans, run.tokens)
		for len(origin) < len(spans) {
			origin = append(origin, ti)
		}
	}
	run.multi, run.multiOrigin = spans, origin
	run.matches, run.mergeIdx = mergeSpans(run.matches, spans, origin, run.mergeIdx[:0])
	return false
}

// mergeSpans merges per-target all-position matches into one: every start
// position keeps its longest span, and identical spans produced by several
// targets merge their candidate lists in target order, so the ordered link
// policy is preserved down to candidate resolution. Appends to dst in
// TokenStart order; idx is scratch for the sort permutation, returned for
// reuse.
func mergeSpans(dst, spans []conceptmap.Match, origin, idx []int) ([]conceptmap.Match, []int) {
	for i := range spans {
		idx = append(idx, i)
	}
	slices.SortFunc(idx, func(a, b int) int {
		ma, mb := &spans[a], &spans[b]
		return cmp.Or(
			cmp.Compare(ma.TokenStart, mb.TokenStart),
			cmp.Compare(mb.TokenEnd, ma.TokenEnd), // longest first
			cmp.Compare(origin[a], origin[b]),     // target order
		)
	})
	for i := 0; i < len(idx); {
		m := spans[idx[i]]
		j := i + 1
		for ; j < len(idx) && spans[idx[j]].TokenStart == m.TokenStart; j++ {
			if n := &spans[idx[j]]; n.TokenEnd == m.TokenEnd {
				// Candidates aliases the concept map's snapshot: clamping
				// the capacity makes append copy instead of writing into it.
				m.Candidates = append(m.Candidates[:len(m.Candidates):len(m.Candidates)], n.Candidates...)
			}
		}
		dst = append(dst, m)
		i = j
	}
	return dst, idx
}

// linkView is the read snapshot the resolve stage works from: the candidate
// entries captured under a single RLock, each with the resolve state derived
// from it at write time (its parsed policy, canonical class indexes, domain
// and URL). Once captured, policy filtering, steering and tie-breaking run
// without touching engine locks or tables.
type linkView struct {
	entries map[int64]*storedEntry
}

// captureView gathers into entries every candidate entry the match slices
// reference, under one read lock. One slice is a single run's view; a batch
// passes every item's matches and links all of them against the one
// immutable view.
func (e *Engine) captureView(entries map[int64]*storedEntry, streams ...[]conceptmap.Match) linkView {
	e.mu.RLock()
	for _, matches := range streams {
		for _, m := range matches {
			for _, oid := range m.Candidates {
				id := int64(oid)
				if _, seen := entries[id]; seen {
					continue
				}
				if entry, ok := e.entries[id]; ok {
					entries[id] = entry
				}
			}
		}
	}
	e.mu.RUnlock()
	return linkView{entries: entries}
}

// priority is the entry's domain priority; an entry whose domain is not
// registered loses all ties.
func (s *storedEntry) priority() int {
	if s.domain == nil {
		return math.MaxInt
	}
	return s.domain.Priority
}

// chooseTarget runs policy filtering, steering, and tie-breaking for one
// concept match. It returns the winning entry, the steering distance it won
// at and the number of candidates the policies permitted, or the reason the
// match is not linked. Everything it reads is the run's plan and its
// captured view, so it takes no lock, probes no string-keyed table and
// builds no URL. A timed run accumulates in run.st the wall time spent in
// the policy and steering stages; other runs read no clock. The plan's
// rank, when non-nil, is the multi-target link policy's corpus order: after
// steering, candidates from earlier target corpora win ties over later ones
// (before domain priority and lowest ID). Nil — the single-target default —
// keeps the tie-break identical to the single-corpus engine.
func (run *linkRun) chooseTarget(m *conceptmap.Match) (winner *storedEntry, distance int64, total int, skip string) {
	st, rank := &run.st, run.plan.rank
	mode := run.plan.mode.resolve()
	// Gather candidates from the view, excluding the source entry.
	cands := run.cands[:0]
	for _, oid := range m.Candidates {
		id := int64(oid)
		if id == run.plan.exclude {
			continue
		}
		if entry, ok := run.view.entries[id]; ok {
			cands = append(cands, entry)
		}
	}
	run.cands = cands[:0:cap(cands)]
	if len(cands) == 0 {
		return nil, 0, 0, SkipSelf
	}
	// One timestamp is shared between the policy stage's end and the steer
	// stage's start, keeping a timed run to ≤3 clock reads per match.
	var mark time.Time
	if st.timed {
		mark = time.Now()
	}

	// Entry filtering by linking policies (§2.4).
	if mode == ModeSteeredPolicies {
		permitted := cands[:0]
		for _, c := range cands {
			if c.policy == nil || c.policy.Permits(run.e.scheme, run.plan.classes, m.Label) {
				permitted = append(permitted, c)
			}
		}
		cands = permitted
		if st.timed {
			now := time.Now()
			st.policy += now.Sub(mark)
			mark = now
		}
		if len(cands) == 0 {
			return nil, 0, 0, SkipPolicy
		}
	}

	total = len(cands)
	distance = classification.Infinite

	// Classification steering (§2.3, Algorithm 1).
	if mode == ModeSteered || mode == ModeSteeredPolicies {
		cands, distance = run.steer(cands)
		if st.timed {
			st.steer += time.Since(mark)
		}
	}

	// Tie-break: target-corpus order (multi-target policies only; earlier
	// targets win), then domain priority (lower wins), then lowest object
	// ID.
	rankOf := func(c *storedEntry) int {
		if rank == nil {
			return 0
		}
		if r, ok := rank[c.Corpus]; ok {
			return r
		}
		return len(rank)
	}
	winner = cands[0]
	winnerRank := rankOf(winner)
	winnerPrio := winner.priority()
	for _, c := range cands[1:] {
		r := rankOf(c)
		p := c.priority()
		if r < winnerRank ||
			(r == winnerRank && (p < winnerPrio || (p == winnerPrio && c.ID < winner.ID))) {
			winner, winnerRank, winnerPrio = c, r, p
		}
	}

	if winner.domain == nil {
		return nil, 0, 0, SkipNoDomain
	}
	return winner, distance, total, ""
}

// steer is Algorithm 1 over the run's candidates: it keeps, in place and in
// order, the candidates whose minimum class distance to the plan's source
// classes is the smallest, and returns them with that distance. It is
// classification.Steer without the annotated copy and the sort, which the
// tie-break that follows does not need; when steering cannot discriminate
// (no source class, no classified candidate) every candidate stays, at
// distance Infinite. Both sides' classes are scheme node indexes resolved
// before the request (the source's by plan, the candidates' at write time),
// so every distance is a walk up the scheme's read-only tree: no lock, no
// string hashing.
func (run *linkRun) steer(cands []*storedEntry) ([]*storedEntry, int64) {
	scheme, src, best := run.e.scheme, run.plan.classIdx, classification.Infinite
	dists := run.dists[:0]
	for _, c := range cands {
		d := classification.MinDistanceIndex(scheme, src, c.classes)
		dists = append(dists, d)
		if d < best {
			best = d
		}
	}
	run.dists = dists
	closest := cands[:0]
	for i, c := range cands {
		if dists[i] == best {
			closest = append(closest, c)
		}
	}
	return closest, best
}

// assemble is the pipeline's tail: the greedy leftmost-longest walk over
// the run's matches (accept a match starting at or past the previous
// winner's end, drop shadowed ones), the first-occurrence rule, target
// selection for each match that survives both, anchor construction, and
// link substitution. A label that is already linked never pays for target
// selection. run.st receives the walk and render wall times.
func (run *linkRun) assemble() (*Result, error) {
	mark := time.Now()
	text, linkAll := run.text, run.e.cfg.LinkAllOccurrences
	res := &Result{Output: text}
	as := run.anchors[:0]
	cursor := 0 // next token position available for a match
	for i := range run.matches {
		m := &run.matches[i]
		if m.TokenStart < cursor {
			continue // shadowed by an earlier winner's phrase
		}
		cursor = m.TokenEnd
		var (
			winner   *storedEntry
			distance int64
			total    int
		)
		reason := SkipDuplicate
		if linkAll || !run.linked[m.Label] {
			winner, distance, total, reason = run.chooseTarget(m)
		}
		if reason != "" {
			res.Skips = append(res.Skips, Skip{Label: m.Label, Start: m.ByteStart, End: m.ByteEnd, Reason: reason})
			continue
		}
		if res.Links == nil {
			res.Links = make([]Link, 0, len(run.matches)-i)
		}
		res.Links = append(res.Links, Link{
			Label:        m.Label,
			Start:        m.ByteStart,
			End:          m.ByteEnd,
			Text:         text[m.ByteStart:m.ByteEnd],
			Target:       winner.ID,
			TargetDomain: winner.Domain,
			TargetTitle:  winner.Title,
			URL:          winner.url,
			Distance:     distance,
			Candidates:   total,
		})
		as = append(as, render.Anchor{Start: m.ByteStart, End: m.ByteEnd, URL: winner.url, Title: winner.Title, Tag: winner.tag})
		run.linked[m.Label] = true
	}
	run.anchors = as
	now := time.Now()
	run.st.merge = now.Sub(mark)
	out, err := render.Apply(text, as, run.plan.format)
	if err != nil {
		return nil, fmt.Errorf("core: render: %w", err)
	}
	res.Output = out
	run.st.render = time.Since(now)
	return res, nil
}

// finish is the pipeline's back half for one scanned text: resolve and
// assemble against view, then the one observe step every engine entry
// point shares (counters, per-corpus links, stage telemetry).
func (e *Engine) finish(run *linkRun, view linkView) (*Result, error) {
	run.view = view
	res, err := run.assemble()
	if err != nil {
		return nil, err
	}
	res.Source = run.plan.entry
	e.tel.observeLink(&run.st, run.plan.source, res)
	return res, nil
}

// link runs one planned text through the whole pipeline.
func (e *Engine) link(p linkPlan, text string) (*Result, error) {
	run := e.getRun()
	defer putRun(run)
	run.plan = p
	e.scanText(run, text)
	return e.finish(run, e.captureView(run.entries, run.matches))
}
