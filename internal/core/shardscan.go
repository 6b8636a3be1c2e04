package core

import (
	"nnexus/internal/tokenizer"
)

// ResolvedMatch is one per-shard scan result: a concept match found by this
// shard's slice of the label space, already resolved against the shard's
// candidate entries. The shard can resolve its own matches completely —
// every candidate of a shard-owned label is projected onto the shard — so
// the router never needs a second round trip; it only runs the global
// greedy merge, the first-occurrence duplicate rule, and rendering.
type ResolvedMatch struct {
	// Label is the normalized concept label that matched.
	Label string
	// TokenStart/TokenEnd delimit the match in the shared token stream.
	TokenStart int
	TokenEnd   int
	// ByteStart/ByteEnd delimit the match in the original text.
	ByteStart int
	ByteEnd   int
	// Skip is the shard-local skip reason (SkipSelf, SkipPolicy,
	// SkipNoDomain); empty means Link holds a resolved link.
	Skip string
	// Link is the resolved link when Skip is empty. Its Text field is left
	// empty — the shard never sees the original text — and is filled by
	// the router.
	Link Link
	// tag is the target's stored open tag (storedEntry.tag), set with Link
	// by the engine's resolve stage; a match that arrived over the wire has
	// none, and renders by escaping Link's URL and title.
	tag string
}

// ScanShard is the shard-mode read primitive: it scans the already
// tokenized text against this shard's slice of the concept map, reporting
// the longest owned match starting at every token position (non-greedy; see
// conceptmap.ScanAllAppend), with each match resolved through the full
// policy/steering/tie-break stage: the Fig 2 pipeline (pipeline.go) stopped
// before assemble. Results append into dst (which may be nil or a recycled
// buffer) in TokenStart order.
//
// Correctness of the sharded protocol rests on two invariants:
//
//  1. Every label starting at a given token shares that token's morph-folded
//     first word, hence one owning shard — so the longest match at any
//     position exists, whole, on exactly one shard.
//  2. The scan is non-greedy (resumes at i+1 after a match), so a shard
//     reports the longest match at every position it owns, even positions a
//     sibling shard's longer match will later shadow. The router's global
//     greedy walk over the merged streams then reproduces the single-map
//     scan's leftmost-longest consumption exactly.
//
// The tokens must cover the entire text: a multi-word phrase owned by this
// shard may continue through tokens whose own first words belong to other
// shards. They were resolved against the vocabulary — by the router's
// tokenizer, or by the server from the words on the wire — before this scan
// pins its generation, so a label published in between whose words were
// new to the vocabulary is not seen by this scan (see Engine.pin).
func (e *Engine) ScanShard(dst []ResolvedMatch, tokens []tokenizer.Token, opts LinkOptions) ([]ResolvedMatch, error) {
	run := e.getRun()
	defer putRun(run)
	run.plan = e.plan(&opts)
	e.pin(run)
	e.scan(run, tokens, true)
	run.view = e.captureView(run.entries, run.matches)
	dst = run.resolveAll(dst)
	e.tel.opScanShard.Inc()
	return dst, nil
}
