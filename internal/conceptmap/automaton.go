package conceptmap

import (
	"sort"
	"strings"

	"nnexus/internal/morph"
	"nnexus/internal/tokenizer"
)

// automaton is an immutable Aho-Corasick matcher compiled from one concept
// map snapshot. The pattern alphabet is the process's word vocabulary (not
// bytes): every concept label becomes a sequence of morph word IDs, so the
// trie depth equals the label's word count and a scan consumes one token per
// step. A token arrives with its word's ID (tokenizer.Token.Word) resolved,
// and the scan walks integer-keyed goto/fail transitions stored in flat
// slices — no string hashing, no per-position phrase building, no per-length
// hash probes, and no allocations.
//
// The match semantics reproduce the chained-hash scan (paper §2.2)
// exactly: among all label occurrences at or after the scan origin, the
// leftmost start wins, the longest label at that start wins, and the scan
// resumes past the matched phrase (matches never overlap). Equivalence is
// enforced by FuzzAutomatonScanEquivalence.
type automaton struct {
	// src is the snapshot this automaton was compiled from. The scan path
	// uses pointer identity (src == current snapshot) as the exactness
	// check: if the map has republished since, the engine falls back to the
	// chained-hash scan of the fresher snapshot.
	src *snapshot
	gen uint64 // src.gen, for staleness telemetry

	// rootNext is the dense goto table of the root state, indexed by word
	// ID; 0 (the root itself) means "no edge", which doubles as the root
	// self-loop of the classic construction. A word in no label — an ID at
	// or past its length, 0, or one it marks -1 — has no edge from any
	// state: the scan drops to the root on it without walking fail links.
	rootNext []int32

	// Non-root states store their outgoing edges as one flat, per-state
	// sorted range: state s owns edgeWord/edgeNext[edgeStart[s]:edgeStart[s+1]],
	// sorted by word ID for binary search. States are numbered in trie
	// insertion order with root = 0.
	edgeStart []int32 // len = states+1
	edgeWord  []int32
	edgeNext  []int32

	fail  []int32 // classic AC failure links
	depth []int32 // trie depth of each state, in words

	// meta packs the per-state scan metadata into one load:
	// outState(32) | outLen(16) | depth(16). outLen is the word count of the
	// longest label ending at the state (inspecting its own terminal flag
	// and its whole failure chain), 0 when none; outState is the terminal
	// state carrying that label's payload. Only the longest suffix-label
	// matters: it has the smallest start, and smaller starts always win
	// under §2.2 semantics. Labels longer than 0xffff words don't fit the
	// packing; compileAutomaton refuses to build for such corpora and the
	// map simply stays on the chained-hash fallback.
	meta []uint64

	// Terminal payloads, indexed by state; label is "" and labelID 0 for
	// non-terminals. ids aliases the labelEntry.ids slices of src, so
	// emitted Candidates are the same slice objects the chained-hash scan
	// would emit.
	label   []string
	labelID []int32
	ids     [][]ObjectID

	maxLen  int // longest label, in words
	nWords  int // distinct words in the labels
	nLabels int // labels compiled
	nStates int
	nEdges  int
}

// compileAutomaton builds the Aho-Corasick automaton for a snapshot. It runs
// off the write path (background compiler goroutine or an explicit
// CompileNow), so it favors simplicity over build speed: a map-based trie,
// then a BFS for failure links, then flattening into the slice layout.
func compileAutomaton(snap *snapshot) *automaton {
	// Deterministic label order makes state numbering (and therefore tests
	// and debug dumps) reproducible for a given snapshot content.
	entries := make([]*labelEntry, 0, snap.nLabels)
	for i := range snap.labels {
		for _, e := range snap.labels[i] {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].label < entries[j].label })

	type buildState struct {
		next map[int32]int32
	}
	states := []buildState{{}} // 0 = root
	depth := []int32{0}
	term := []int32{-1} // index into entries, -1 for non-terminals
	maxLen, maxWord := 0, int32(0)

	for idx, e := range entries {
		s := int32(0)
		rest := e.label
		for rest != "" {
			var word string
			if sp := strings.IndexByte(rest, ' '); sp >= 0 {
				word, rest = rest[:sp], rest[sp+1:]
			} else {
				word, rest = rest, ""
			}
			if word == "" {
				// NormalizeLabel never emits empty words, but a label from a
				// foreign source could; skip it defensively.
				continue
			}
			// Writer.Add interned the words before the snapshot was published;
			// interning again only finds them.
			w := morph.InternWord(word)
			maxWord = max(maxWord, w)
			next, ok := states[s].next[w]
			if !ok {
				next = int32(len(states))
				states = append(states, buildState{})
				depth = append(depth, depth[s]+1)
				term = append(term, -1)
				if states[s].next == nil {
					states[s].next = make(map[int32]int32)
				}
				states[s].next[w] = next
			}
			s = next
		}
		term[s] = int32(idx)
		if e.nWords > maxLen {
			maxLen = e.nWords
		}
	}

	if maxLen > 0xffff {
		// A label too long for the packed metadata; absurd in practice, but
		// refuse cleanly rather than compile a wrong automaton.
		return nil
	}
	n := len(states)
	a := &automaton{
		src:      snap,
		gen:      snap.gen,
		rootNext: make([]int32, maxWord+1),
		fail:     make([]int32, n),
		depth:    depth,
		meta:     make([]uint64, n),
		label:    make([]string, n),
		labelID:  make([]int32, n),
		ids:      make([][]ObjectID, n),
		maxLen:   maxLen,
		nLabels:  len(entries),
		nStates:  n,
	}
	for s, t := range term {
		if t >= 0 {
			a.label[s] = entries[t].label
			a.labelID[s] = entries[t].id
			a.ids[s] = entries[t].ids
		}
	}

	// Root edges go into the dense rootNext table first: the BFS below
	// resolves deeper failure links through it. Every other label word gets
	// 0, the root's self-loop.
	for w := range a.rootNext {
		a.rootNext[w] = -1
	}
	for s := range states {
		for w := range states[s].next {
			if a.rootNext[w] < 0 {
				a.rootNext[w] = 0
				a.nWords++
			}
		}
	}
	for w, v := range states[0].next {
		a.rootNext[w] = v
	}

	// BFS from the root computes failure links and output summaries; BFS
	// order guarantees fail[u] (strictly shallower) is resolved before u.
	queue := make([]int32, 0, n)
	for w, v := range states[0].next {
		_ = w
		queue = append(queue, v)
	}
	// Root children in sorted-word order for determinism.
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for _, v := range queue {
		a.fail[v] = 0
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		// Resolve u's output summary now that fail[u] is known: terminals
		// are their own longest output; everything else inherits the
		// outState/outLen halves from its failure state (BFS order
		// guarantees those are final) and keeps its own depth.
		if a.label[u] != "" {
			a.meta[u] = uint64(uint32(u))<<32 | uint64(a.depth[u])<<16 | uint64(a.depth[u])
		} else {
			a.meta[u] = (a.meta[a.fail[u]] &^ 0xffff) | uint64(a.depth[u])
		}
		ws := make([]int32, 0, len(states[u].next))
		for w := range states[u].next {
			ws = append(ws, w)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		for _, w := range ws {
			v := states[u].next[w]
			// Walk u's failure chain to find the deepest proper suffix with
			// a w-edge; the root's miss is the root itself (rootNext 0).
			f := a.fail[u]
			for {
				if f == 0 {
					a.fail[v] = a.rootNext[w]
					break
				}
				if t, ok := states[f].next[w]; ok {
					a.fail[v] = t
					break
				}
				f = a.fail[f]
			}
			queue = append(queue, v)
		}
	}

	// Flatten non-root edges into per-state sorted ranges.
	total := 0
	for s := 1; s < n; s++ {
		total += len(states[s].next)
	}
	a.edgeStart = make([]int32, n+1)
	a.edgeWord = make([]int32, total)
	a.edgeNext = make([]int32, total)
	a.nEdges = total + len(states[0].next)
	pos := int32(0)
	for s := 1; s < n; s++ {
		a.edgeStart[s] = pos
		ws := make([]int32, 0, len(states[s].next))
		for w := range states[s].next {
			ws = append(ws, w)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		for _, w := range ws {
			a.edgeWord[pos] = w
			a.edgeNext[pos] = states[s].next[w]
			pos++
		}
	}
	a.edgeStart[0] = 0 // root's range is empty; its edges live in rootNext
	a.edgeStart[n] = pos
	return a
}

// step is the full goto function: follow s's w-edge, falling down the
// failure chain on misses until the root resolves (possibly to itself).
// Amortized O(1) per scanned token by the classic depth argument. w is a
// word of some label.
func (a *automaton) step(s, w int32) int32 {
	for {
		if s == 0 {
			return a.rootNext[w]
		}
		lo, hi := a.edgeStart[s], a.edgeStart[s+1]
		for lo < hi {
			mid := (lo + hi) >> 1
			switch ew := a.edgeWord[mid]; {
			case ew == w:
				return a.edgeNext[mid]
			case ew < w:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		s = a.fail[s]
	}
}

// scanAppend is the automaton scan. One forward pass over the tokens,
// tracking at most one candidate match — the best (leftmost-start, then
// longest) occurrence seen so far. A candidate is emitted as soon as no
// later occurrence could beat or extend it, which also bounds the restart
// re-scan after each emitted match to less than maxLen tokens.
//
// Zero allocations: all scan state is scalar, and emitted Candidates alias
// the snapshot's interned object-ID slices (exactly as scanChained does).
func (a *automaton) scanAppend(dst []Match, tokens []tokenizer.Token) []Match {
	var (
		s         int32 // current state
		j         int   // next token index
		candLen   int   // candidate length in words; 0 = no candidate
		candStart int   // candidate first-token index
		candState int32 // candidate's terminal state (payload)
	)
	rootNext, meta := a.rootNext, a.meta
	for {
		if j < len(tokens) {
			// A word absent from every label — Word 0 among them (see
			// Pinned) — kills the walk outright; rootNext serves the
			// dominant root-state transition without touching the
			// automaton's edge arrays.
			w := tokens[j].Word
			var t int32
			if uint(w) < uint(len(rootNext)) {
				switch r := rootNext[w]; {
				case r < 0: // in no label
				case s == 0:
					t = r
				default:
					t = a.step(s, w)
				}
			}
			mt := meta[t]
			if l := int(mt>>16) & 0xffff; l > 0 {
				// Longest label ending at token j; by the AC suffix
				// property this is every occurrence ending here that starts
				// at or after the current origin, and the longest one
				// starts leftmost.
				start := j + 1 - l
				if candLen == 0 || start < candStart || (start == candStart && l > candLen) {
					candStart, candLen, candState = start, l, int32(mt>>32)
				}
			}
			// Keep walking unless the candidate became final: any
			// occurrence ending strictly after j has length at most
			// depth(t) + (tokens consumed after j), so its start is at
			// least j+1-depth(t). Once that bound passes candStart, no
			// future occurrence can start earlier or extend the candidate
			// in place.
			if candLen == 0 || candStart >= j+1-int(mt&0xffff) {
				s = t
				j++
				continue
			}
		} else if candLen == 0 {
			break
		}
		// Emit the candidate. §2.2: the scan resumes past the phrase —
		// restart the walk from the root at the match end; the tokens in
		// (end, j] are re-scanned, but that suffix is shorter than maxLen
		// by the finalize rule above.
		end := candStart + candLen
		dst = append(dst, Match{
			Label:      a.label[candState],
			LabelID:    a.labelID[candState],
			TokenStart: candStart,
			TokenEnd:   end,
			ByteStart:  tokens[candStart].Start,
			ByteEnd:    tokens[end-1].End,
			Candidates: a.ids[candState],
		})
		j = end
		s = 0
		candLen = 0
	}
	return dst
}
