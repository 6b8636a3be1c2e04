// Package experiments reproduces the paper's evaluation (§3) and its
// surrounding claims: it wires generated corpora into engines and runs the
// protocols behind
//
//   - Table 1: overlinking before/after policies on a 20-entry sample;
//   - Table 2: linking quality of the three pipeline configurations;
//   - Table 3 / Fig 8: the scalability sweep;
//   - the invalidation-index ablation (§2.5, uncompacted vs adaptive);
//   - manual-vs-automatic maintenance cost (§1.2);
//   - semiautomatic (Mediawiki) vs automatic linking effort (§1.2);
//   - automatic policy suggestion from keyword statistics (§5);
//   - semantic-network connectivity (§1.3's "fully connected network");
//   - LaTeX-corpus equivalence (TeX markup is encoding, not semantics).
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nnexus/internal/baseline"
	"nnexus/internal/conceptmap"
	"nnexus/internal/core"
	"nnexus/internal/corpus"
	"nnexus/internal/invindex"
	"nnexus/internal/keywords"
	"nnexus/internal/metrics"
	"nnexus/internal/morph"
	"nnexus/internal/semnet"
	"nnexus/internal/storage"
	"nnexus/internal/workload"
)

// DomainName is the domain generated corpora are registered under.
const DomainName = "planetmath.example"

// BuildEngine loads a generated corpus into a fresh engine. store may be nil
// for a memory-only engine.
func BuildEngine(c *workload.Corpus, store *storage.Store) (*core.Engine, error) {
	e, err := core.NewEngine(core.Config{
		Scheme: c.Scheme,
		Store:  store,
		LaTeX:  c.Params.LaTeX,
	})
	if err != nil {
		return nil, err
	}
	return e, Load(c, e)
}

// Loader is what a generated corpus loads into: an engine or the public
// facade's.
type Loader interface {
	AddDomain(corpus.Domain) error
	AddEntry(*corpus.Entry) (int64, error)
}

// Load registers the corpus's domain with a fresh dst and adds every entry
// in generation order, so entry IDs equal generator indexes.
func Load(c *workload.Corpus, dst Loader) error {
	if err := dst.AddDomain(corpus.Domain{
		Name:        DomainName,
		URLTemplate: "http://" + DomainName + "/?op=getobj&id={id}",
		Scheme:      c.Scheme.Name(),
		Priority:    1,
	}); err != nil {
		return err
	}
	for _, ge := range c.Entries {
		entry := *ge.Entry // copy: AddEntry mutates ID
		entry.Domain = DomainName
		id, err := dst.AddEntry(&entry)
		if err != nil {
			return fmt.Errorf("experiments: add entry %d: %w", ge.Index, err)
		}
		if id != int64(ge.Index) {
			return fmt.Errorf("experiments: entry %d got ID %d", ge.Index, id)
		}
	}
	return nil
}

// ApplyAllPolicies installs the overlink-fixing linking policy on every
// common-word definer (the "67 user-supplied linking policies" of Table 2).
// It returns the number of policies installed.
func ApplyAllPolicies(e *core.Engine, c *workload.Corpus) (int, error) {
	labels := make([]string, 0, len(c.CommonDefiners))
	for label := range c.CommonDefiners {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return ApplyPolicies(e, c, labels)
}

// ApplyPolicies installs policies for the given common-word labels and
// returns how many target objects were modified.
func ApplyPolicies(e *core.Engine, c *workload.Corpus, labels []string) (int, error) {
	modified := map[int]bool{}
	for _, label := range labels {
		idx, text, err := c.PolicyFor(label)
		if err != nil {
			return len(modified), err
		}
		if err := e.SetPolicy(int64(idx), text); err != nil {
			return len(modified), err
		}
		modified[idx] = true
	}
	return len(modified), nil
}

// SampleIndexes draws n distinct generator indexes uniformly (the paper's
// random-subset survey protocol), deterministically from seed.
func SampleIndexes(c *workload.Corpus, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(c.Entries))
	if n > len(perm) {
		n = len(perm)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = perm[i] + 1
	}
	sort.Ints(out)
	return out
}

// EvaluateEntries links the given entries under mode and scores them
// against ground truth.
func EvaluateEntries(e *core.Engine, c *workload.Corpus, idxs []int, mode core.Mode) (metrics.Counts, error) {
	var total metrics.Counts
	for _, idx := range idxs {
		res, err := e.LinkEntry(int64(idx), core.LinkOptions{Mode: mode})
		if err != nil {
			return total, err
		}
		total.Add(metrics.Evaluate(res, c.Entries[idx-1].Truth, metrics.Identity))
	}
	return total, nil
}

// EvaluateAll scores every entry of the corpus.
func EvaluateAll(e *core.Engine, c *workload.Corpus, mode core.Mode) (metrics.Counts, error) {
	idxs := make([]int, len(c.Entries))
	for i := range idxs {
		idxs[i] = i + 1
	}
	return EvaluateEntries(e, c, idxs, mode)
}

// Table1Result reproduces Table 1: linking quality of a 20-entry sample
// before and after fixing the overlink culprits of 5 random sampled
// entries with new linking policies.
type Table1Result struct {
	SampleSize    int
	FixedEntries  int // entries whose overlinks were fixed (paper: 5)
	PolicyTargets int // target objects that received policies (paper: 8)
	Before        metrics.Counts
	After         metrics.Counts
}

// RunTable1 executes the Table 1 protocol on the corpus.
func RunTable1(c *workload.Corpus, sampleSize, fixEntries int, seed int64) (*Table1Result, error) {
	e, err := BuildEngine(c, nil)
	if err != nil {
		return nil, err
	}
	sample := SampleIndexes(c, sampleSize, seed)
	before, err := EvaluateEntries(e, c, sample, core.ModeSteeredPolicies)
	if err != nil {
		return nil, err
	}
	// Pick fixEntries of the sample and fix all of their overlinks by
	// creating new link policies on the offending target objects.
	rng := rand.New(rand.NewSource(seed + 1))
	perm := rng.Perm(len(sample))
	culprits := map[string]bool{}
	for i := 0; i < fixEntries && i < len(perm); i++ {
		idx := sample[perm[i]]
		res, err := e.LinkEntry(int64(idx), core.LinkOptions{Mode: core.ModeSteeredPolicies})
		if err != nil {
			return nil, err
		}
		truth := map[string]int{}
		for _, inv := range c.Entries[idx-1].Truth {
			truth[inv.Label] = inv.Target
		}
		for _, l := range res.Links {
			if want, ok := truth[l.Label]; ok && want == 0 {
				culprits[l.Label] = true // overlink: policy its target concept
			}
		}
	}
	labels := make([]string, 0, len(culprits))
	for label := range culprits {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	targets, err := ApplyPolicies(e, c, labels)
	if err != nil {
		return nil, err
	}
	after, err := EvaluateEntries(e, c, sample, core.ModeSteeredPolicies)
	if err != nil {
		return nil, err
	}
	return &Table1Result{
		SampleSize:    len(sample),
		FixedEntries:  fixEntries,
		PolicyTargets: targets,
		Before:        before,
		After:         after,
	}, nil
}

// Table2Row is one configuration row of Table 2.
type Table2Row struct {
	Config   string
	Policies int
	Counts   metrics.Counts
}

// RunTable2 reproduces Table 2: automatic linking statistics for the corpus
// without steering or policies, with steering, and with steering plus the
// full set of user-supplied linking policies. Statistics are estimated from
// a random sample of sampleSize entries, as in the paper (50).
func RunTable2(c *workload.Corpus, sampleSize int, seed int64) ([]Table2Row, error) {
	e, err := BuildEngine(c, nil)
	if err != nil {
		return nil, err
	}
	sample := SampleIndexes(c, sampleSize, seed)
	var rows []Table2Row

	lex, err := EvaluateEntries(e, c, sample, core.ModeLexical)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table2Row{Config: "lexical matching only", Counts: lex})

	steered, err := EvaluateEntries(e, c, sample, core.ModeSteered)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table2Row{Config: "with classification steering", Counts: steered})

	n, err := ApplyAllPolicies(e, c)
	if err != nil {
		return nil, err
	}
	full, err := EvaluateEntries(e, c, sample, core.ModeSteeredPolicies)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table2Row{
		Config:   fmt.Sprintf("steering + %d linking policies", n),
		Policies: n,
		Counts:   full,
	})
	return rows, nil
}

// Table3Row is one corpus size of the scalability sweep (Table 3 / Fig 8).
type Table3Row struct {
	CorpusSize  int
	Concepts    int
	Links       int
	IndexTime   time.Duration // concept-map construction (engine build)
	LinkTime    time.Duration // linking every entry
	TimePerLink time.Duration
}

// RunTable3 reproduces the scalability study: for each corpus size, build
// an engine over that subset and time linking every object in it.
func RunTable3(c *workload.Corpus, sizes []int) ([]Table3Row, error) {
	var rows []Table3Row
	for _, size := range sizes {
		sub := c.Subset(size)
		start := time.Now()
		e, err := BuildEngine(sub, nil)
		if err != nil {
			return nil, err
		}
		indexTime := time.Since(start)
		links := 0
		start = time.Now()
		for _, ge := range sub.Entries {
			res, err := e.LinkEntry(int64(ge.Index), core.LinkOptions{})
			if err != nil {
				return nil, err
			}
			links += len(res.Links)
		}
		linkTime := time.Since(start)
		row := Table3Row{
			CorpusSize: len(sub.Entries),
			Concepts:   e.NumConcepts(),
			Links:      links,
			IndexTime:  indexTime,
			LinkTime:   linkTime,
		}
		if links > 0 {
			row.TimePerLink = linkTime / time.Duration(links)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// InvalidationResult compares the adaptive phrase invalidation index with a
// word-based inverted index (§2.5 / Fig 6): how many entries each approach
// invalidates when the corpus's multi-word concept labels are (re)defined.
type InvalidationResult struct {
	Config              string // "uncompacted" or "adaptive (singletons dropped)"
	LabelsProbed        int
	PhraseInvalidations int // total entries invalidated by the phrase index
	WordInvalidations   int // total entries a word-union index would invalidate
	PhraseKeys          int
	WordKeys            int
	// SizeRatio is the phrase index's posting count relative to a plain
	// word inverted index (paper: "around twice the size").
	SizeRatio float64
}

// RunInvalidation builds the invalidation index over the corpus bodies in
// two configurations — uncompacted (every phrase retained) and adaptive
// (singleton phrases dropped, the paper's Zipf argument) — and probes each
// with every multi-word concept label. The word-union column is what a
// plain word-based inverted index would invalidate.
func RunInvalidation(c *workload.Corpus) ([]InvalidationResult, error) {
	var out []InvalidationResult
	for _, cfg := range []struct {
		name    string
		compact bool
	}{
		{"uncompacted phrase index", false},
		{"adaptive (singletons dropped)", true},
	} {
		ix := invindex.New()
		for _, ge := range c.Entries {
			ix.AddText(int64(ge.Index), ge.Entry.Body)
		}
		if cfg.compact {
			ix.Compact(invindex.DefaultCompactBelow)
		}
		res := InvalidationResult{Config: cfg.name}
		for _, ge := range c.Entries {
			for _, label := range ge.Entry.Labels() {
				if len(label) == 0 || !hasSpace(label) {
					continue // single words behave identically in both schemes
				}
				res.LabelsProbed++
				res.PhraseInvalidations += len(ix.Lookup(label))
				res.WordInvalidations += len(ix.LookupWordUnion(label))
			}
		}
		stats := ix.Stats()
		res.PhraseKeys = stats.PhraseKeys
		res.WordKeys = stats.WordKeys
		res.SizeRatio = stats.SizeRatio()
		out = append(out, res)
	}
	return out, nil
}

// RunNetwork links every entry of the corpus (full pipeline with all
// policies installed) and materializes the resulting semantic network —
// the paper's "fully connected network of articles". sampleEvery controls
// the reachability estimate.
func RunNetwork(c *workload.Corpus, sampleEvery int) (*semnet.Graph, semnet.Stats, error) {
	e, err := BuildEngine(c, nil)
	if err != nil {
		return nil, semnet.Stats{}, err
	}
	if _, err := ApplyAllPolicies(e, c); err != nil {
		return nil, semnet.Stats{}, err
	}
	g := semnet.New()
	for _, ge := range c.Entries {
		g.AddNode(int64(ge.Index), ge.Entry.Title)
	}
	for _, ge := range c.Entries {
		res, err := e.LinkEntry(int64(ge.Index), core.LinkOptions{})
		if err != nil {
			return nil, semnet.Stats{}, err
		}
		for _, l := range res.Links {
			g.AddEdge(int64(ge.Index), l.Target, l.Label)
		}
	}
	return g, g.Stats(sampleEvery), nil
}

// SemiAutoResult compares the Mediawiki-style semiautomatic paradigm with
// NNexus's automatic linking on the same sample (§1.2): how much markup the
// authors must write, how many of their links break or land on
// disambiguation pages, versus zero author actions under NNexus.
type SemiAutoResult struct {
	SampleSize int
	// Semiautomatic paradigm.
	SemiAuto baseline.Effort
	// Automatic paradigm: author actions are zero by construction.
	AutoLinks     int
	AutoResolved  int // links pointing at a single steered target
	AutoAmbiguous int // links where steering could not fully discriminate
}

// RunSemiAuto simulates conscientious wiki authors bracketing every
// invocation of their entries ([[...]] markup), resolves the markup the way
// Mediawiki does (exact title match, disambiguation on homonyms), and
// compares with NNexus linking the same bodies automatically.
func RunSemiAuto(c *workload.Corpus, sampleSize int, seed int64) (*SemiAutoResult, error) {
	e, err := BuildEngine(c, nil)
	if err != nil {
		return nil, err
	}
	// The semiautomatic resolver sees the same concept labels.
	cm := conceptmap.New()
	for _, ge := range c.Entries {
		cm.AddObject(conceptmap.ObjectID(ge.Index), ge.Entry.Labels())
	}
	semi := baseline.NewSemiAutoLinker(cm)

	sample := SampleIndexes(c, sampleSize, seed)
	res := &SemiAutoResult{SampleSize: len(sample)}
	for _, idx := range sample {
		ge := c.Entries[idx-1]
		labels := make([]string, 0, len(ge.Truth))
		for _, inv := range ge.Truth {
			if inv.Target > 0 {
				labels = append(labels, inv.Label)
			}
		}
		marked, actions := baseline.MarkupInvocations(ge.Entry.Body, labels)
		effort := semi.MeasureSemiAuto(marked)
		if effort.AuthorActions != actions {
			return nil, fmt.Errorf("experiments: markup/resolve mismatch on entry %d", idx)
		}
		res.SemiAuto.Add(effort)

		auto, err := e.LinkEntry(int64(idx), core.LinkOptions{})
		if err != nil {
			return nil, err
		}
		res.AutoLinks += len(auto.Links)
		for _, l := range auto.Links {
			if l.Candidates > 1 {
				res.AutoAmbiguous++ // steering had to disambiguate
			}
			res.AutoResolved++
		}
	}
	return res, nil
}

// AutoPolicyResult compares precision with no policies, with the paper's
// user-supplied policies, and with policies generated automatically from
// keyword statistics (the §5 future-work claim that the policy targets can
// be found without human effort).
type AutoPolicyResult struct {
	Suspects       int // labels flagged by the detector
	TruePositives  int // flagged labels that really are common-word culprits
	NoPolicies     metrics.Counts
	ManualPolicies metrics.Counts
	AutoPolicies   metrics.Counts
}

// RunAutoPolicy evaluates a sample under steering only, under the full
// manually-policied pipeline, and under automatically suggested policies.
func RunAutoPolicy(c *workload.Corpus, sampleSize int, seed int64, threshold float64) (*AutoPolicyResult, error) {
	// Detect suspects from corpus statistics alone.
	x := keywords.NewExtractor()
	for _, ge := range c.Entries {
		x.AddDocument(ge.Entry.Body)
	}
	var allLabels []string
	seen := map[string]struct{}{}
	for _, ge := range c.Entries {
		for _, label := range ge.Entry.Labels() {
			norm := morph.NormalizeLabel(label)
			if _, dup := seen[norm]; !dup {
				seen[norm] = struct{}{}
				allLabels = append(allLabels, norm)
			}
		}
	}
	suspects := x.OverlinkSuspects(allLabels, threshold)

	res := &AutoPolicyResult{Suspects: len(suspects)}
	var autoPolicied []string
	for _, label := range suspects {
		if _, ok := c.CommonDefiners[label]; ok {
			res.TruePositives++
			autoPolicied = append(autoPolicied, label)
		}
		// Suspects that are not common-word culprits (popular regular or
		// homonym labels) have no PolicyFor; a real administrator would
		// review them — we simply skip them, as review would.
	}

	sample := SampleIndexes(c, sampleSize, seed)

	e, err := BuildEngine(c, nil)
	if err != nil {
		return nil, err
	}
	res.NoPolicies, err = EvaluateEntries(e, c, sample, core.ModeSteered)
	if err != nil {
		return nil, err
	}
	if _, err := ApplyPolicies(e, c, autoPolicied); err != nil {
		return nil, err
	}
	res.AutoPolicies, err = EvaluateEntries(e, c, sample, core.ModeSteeredPolicies)
	if err != nil {
		return nil, err
	}

	// Fresh engine for the manual-policy configuration.
	e2, err := BuildEngine(c, nil)
	if err != nil {
		return nil, err
	}
	if _, err := ApplyAllPolicies(e2, c); err != nil {
		return nil, err
	}
	res.ManualPolicies, err = EvaluateEntries(e2, c, sample, core.ModeSteeredPolicies)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// MaintenanceRow is one growth checkpoint of the manual-vs-automatic
// maintenance comparison (§1.2: keeping an evolving corpus fully linked
// manually is an O(n²)-scale problem; the invalidation index makes the
// automatic approach touch only a minimal superset).
type MaintenanceRow struct {
	CorpusSize        int
	ManualInspections int64 // re-inspections a manual corpus needs (cumulative)
	AutoInvalidations int64 // entries the invalidation index re-linked (cumulative)
}

// RunMaintenance simulates growing the corpus one entry at a time. Under
// the manual paradigm every existing entry must be re-inspected whenever
// new concepts appear; under NNexus only the invalidation-index hits are.
func RunMaintenance(c *workload.Corpus, checkpoints []int) ([]MaintenanceRow, error) {
	ix := invindex.New()
	var manual, auto int64
	var rows []MaintenanceRow
	next := 0
	for i, ge := range c.Entries {
		// The new entry's labels invalidate prior entries.
		for _, label := range ge.Entry.Labels() {
			auto += int64(len(ix.Lookup(label)))
		}
		manual += int64(i) // manual: reinspect every existing entry
		ix.AddText(int64(ge.Index), ge.Entry.Body)
		size := i + 1
		if next < len(checkpoints) && size == checkpoints[next] {
			rows = append(rows, MaintenanceRow{
				CorpusSize:        size,
				ManualInspections: manual,
				AutoInvalidations: auto,
			})
			next++
		}
	}
	return rows, nil
}

func hasSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return true
		}
	}
	return false
}
