package conceptmap

import (
	"sync"
	"sync/atomic"
	"time"

	"nnexus/internal/clock"
)

// This file owns the compile-and-publish lifecycle of the scan automaton:
//
//	write commits snapshot gen G  ──mark dirty──▶  background compiler
//	        (never blocks)                          (debounced, single-flight)
//	                                                      │ compileAutomaton(G)
//	                                                      ▼
//	                                   automaton published via atomic.Pointer
//	                                   (only ever forward: gen monotonic)
//
// Readers load both pointers and use the automaton only when it was compiled
// from exactly the current snapshot (pointer identity); otherwise they fall
// back to the chained-hash scan of the fresh snapshot. Writes therefore
// never wait for compilation, reads never block, and a scan is always exact
// regardless of how far the automaton trails the write stream.

// BuildInfo describes one completed automaton build, as delivered to the
// observer installed with SetBuildObserver.
type BuildInfo struct {
	Generation uint64        // snapshot generation that was compiled
	Duration   time.Duration // wall time of the compile
	States     int           // automaton states (trie nodes incl. root)
	Edges      int           // goto edges (incl. root edges)
	Words      int           // distinct words in the labels
	Labels     int           // labels compiled
}

// AutomatonInfo is a point-in-time summary of the automaton subsystem for
// telemetry and diagnostics.
type AutomatonInfo struct {
	Compiled           bool   // an automaton has been published
	Generation         uint64 // generation the automaton was compiled from
	SnapshotGeneration uint64 // current snapshot generation
	States             int
	Edges              int
	Words              int
	Labels             int
	MaxPhraseLen       int   // longest compiled label, in words
	Builds             int64 // completed compiles
	AutomatonScans     int64 // scans served by the automaton
	FallbackScans      int64 // scans served by the chained-hash fallback
	LastBuild          time.Duration
	TotalBuild         time.Duration
}

// compilerState is the Map's automaton machinery. Counters are atomics so
// the lock-free scan path can bump them; the goroutine lifecycle fields are
// guarded by mu.
type compilerState struct {
	aut atomic.Pointer[automaton]

	autScans      atomic.Int64
	fallbackScans atomic.Int64
	builds        atomic.Int64
	lastBuildNs   atomic.Int64
	totalBuildNs  atomic.Int64

	mu      sync.Mutex
	dirty   chan struct{} // cap 1; non-nil while the compiler runs
	stop    chan struct{}
	done    chan struct{}
	onBuild func(BuildInfo)
	// compileMu serializes builds (background loop vs CompileNow callers).
	compileMu sync.Mutex
}

// markDirty signals the background compiler (if running) that the snapshot
// generation moved. Non-blocking by construction: the channel has capacity
// one and a pending token already means "recompile latest".
func (m *Map) markDirty() {
	m.comp.mu.Lock()
	dirty := m.comp.dirty
	m.comp.mu.Unlock()
	if dirty == nil {
		return
	}
	select {
	case dirty <- struct{}{}:
	default:
	}
}

// SetBuildObserver installs a callback invoked after every completed
// automaton build (from either the background compiler or CompileNow). It
// must be installed before StartCompiler; passing nil removes it.
func (m *Map) SetBuildObserver(fn func(BuildInfo)) {
	m.comp.mu.Lock()
	m.comp.onBuild = fn
	m.comp.mu.Unlock()
}

// StartCompiler launches the background automaton compiler: a single
// goroutine that waits for dirty snapshot generations, debounces write
// bursts for the given duration, and republishes the automaton. Calling it
// on an already-running compiler is a no-op. The initial state counts as
// dirty, so an already-populated map gets an automaton without waiting for
// the next write, or for the debounce.
func (m *Map) StartCompiler(debounce time.Duration) {
	m.comp.mu.Lock()
	if m.comp.dirty != nil {
		m.comp.mu.Unlock()
		return
	}
	m.comp.dirty = make(chan struct{}, 1)
	m.comp.stop = make(chan struct{})
	m.comp.done = make(chan struct{})
	dirty, stop, done := m.comp.dirty, m.comp.stop, m.comp.done
	m.comp.mu.Unlock()
	go m.compileLoop(debounce, dirty, stop, done)
	m.markDirty()
}

// StopCompiler stops the background compiler and waits for it to exit. The
// published automaton (if any) remains readable. No-op when not running.
func (m *Map) StopCompiler() {
	m.comp.mu.Lock()
	if m.comp.dirty == nil {
		m.comp.mu.Unlock()
		return
	}
	stop, done := m.comp.stop, m.comp.done
	m.comp.dirty, m.comp.stop, m.comp.done = nil, nil, nil
	m.comp.mu.Unlock()
	close(stop)
	<-done
}

// compileLoop is the body of the background compiler goroutine: sleep until
// dirty, debounce, rebuild, sleep again (single-flight, latest generation
// wins). A write during a build leaves its token in dirty, so the next round
// starts at once, with its own debounce: sustained writes get one build per
// window, not builds back to back. Only the first round does not wait: it is
// StartCompiler's own signal, for a map populated before it.
func (m *Map) compileLoop(debounce time.Duration, dirty, stop, done chan struct{}) {
	defer close(done)
	for first := true; ; first = false {
		select {
		case <-stop:
			return
		case <-dirty:
		}
		if debounce > 0 && !first {
			select {
			case <-stop:
				return
			case <-clock.After(debounce):
			}
			// Absorb signals that accumulated during the debounce window;
			// the compile below reads the latest snapshot anyway.
			select {
			case <-dirty:
			default:
			}
		}
		m.compileOnce()
	}
}

// compileOnce compiles the current snapshot unless the published automaton
// already matches it.
func (m *Map) compileOnce() {
	m.comp.compileMu.Lock()
	defer m.comp.compileMu.Unlock()
	snap := m.snap.Load()
	if cur := m.comp.aut.Load(); cur != nil && cur.src == snap {
		return
	}
	start := clock.Now()
	aut := compileAutomaton(snap)
	if aut == nil {
		// Snapshot not compilable (a label exceeds the packed depth width);
		// keep serving every scan from the chained-hash fallback.
		return
	}
	d := clock.Now().Sub(start)
	m.publishAutomaton(aut)
	m.comp.builds.Add(1)
	m.comp.lastBuildNs.Store(int64(d))
	m.comp.totalBuildNs.Add(int64(d))
	m.comp.mu.Lock()
	onBuild := m.comp.onBuild
	m.comp.mu.Unlock()
	if onBuild != nil {
		onBuild(BuildInfo{
			Generation: aut.gen,
			Duration:   d,
			States:     aut.nStates,
			Edges:      aut.nEdges,
			Words:      aut.nWords,
			Labels:     aut.nLabels,
		})
	}
}

// publishAutomaton swaps the automaton in, but only ever forward: an older
// generation never replaces a newer one, even if two compiles race.
func (m *Map) publishAutomaton(aut *automaton) {
	for {
		cur := m.comp.aut.Load()
		if cur != nil && cur.gen >= aut.gen {
			return
		}
		if m.comp.aut.CompareAndSwap(cur, aut) {
			return
		}
	}
}

// CompileNow synchronously compiles the current snapshot (if the published
// automaton is stale) regardless of whether the background compiler runs.
// Intended for tests, benchmarks, and bulk-load call sites that want the
// fast path primed before serving.
func (m *Map) CompileNow() {
	m.compileOnce()
}

// AutomatonInfo reports the current automaton/compiler state. The automaton
// is loaded before the snapshot: generations are monotonic and an automaton
// only ever compiles from an already-published snapshot, so this order
// guarantees SnapshotGeneration >= Generation even when a compile publishes
// between the two loads.
func (m *Map) AutomatonInfo() AutomatonInfo {
	aut := m.comp.aut.Load()
	info := AutomatonInfo{
		SnapshotGeneration: m.snap.Load().gen,
		Builds:             m.comp.builds.Load(),
		AutomatonScans:     m.comp.autScans.Load(),
		FallbackScans:      m.comp.fallbackScans.Load(),
		LastBuild:          time.Duration(m.comp.lastBuildNs.Load()),
		TotalBuild:         time.Duration(m.comp.totalBuildNs.Load()),
	}
	if aut != nil {
		info.Compiled = true
		info.Generation = aut.gen
		info.States = aut.nStates
		info.Edges = aut.nEdges
		info.Words = aut.nWords
		info.Labels = aut.nLabels
		info.MaxPhraseLen = aut.maxLen
	}
	return info
}
