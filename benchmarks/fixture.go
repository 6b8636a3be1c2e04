package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nnexus"
	"nnexus/internal/metrics"
	"nnexus/internal/workload"
)

const (
	domainName  = "planetmath.example"
	importBatch = 256
	// heldOut entries at the end of the generated corpus are never imported
	// at set-up; author_mix adds them one by one as its writes.
	heldOut   = 500
	warmupOps = 200
	setupReps = 3
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	duration time.Duration // length of the timed phase
	trace    bool
	entries  int // generated corpus size
	replay   int // ops a traced run replays through the layers
	outDir   string
}

// fixture is the system under test as a user assembles it, plus what the
// benchmark knows about the inputs it generated.
type fixture struct {
	cfg    config
	corpus *workload.Corpus // everything generated, held-out entries included
	served *workload.Corpus // the imported prefix, with ground truth cut to it
	dir    string           // the engine's DataDir, inside cfg.outDir
	// policies holds, by generator index, the linking policy of every
	// common-word definer (Table 2's 67 policies).
	policies map[int]string
	eng      *nnexus.Engine
	srv      *nnexus.Server
	conns    []*nnexus.Client

	generateS  float64
	setupS     float64         // median of the set-ups, on the nominal host
	batchTimes []time.Duration // the kept set-up's import, one per AddEntries batch
}

func generate(cfg config) (*workload.Corpus, float64, error) {
	start := time.Now()
	p := workload.DefaultParams(cfg.entries)
	p.Seed = cfg.seed
	c, err := workload.Generate(p)
	return c, time.Since(start).Seconds(), err
}

// syncWrites is the flush policy of every engine whose work is timed. A run
// may only write inside its checkout, and that disk is shared: an fsync took
// 0.25 ms at the first decile and 2.6 ms at the ninth here, up to 76 ms, and
// a relink fsyncs once per entry. The durable path runs, and is counted, in
// the traced run's durableWrites.
const syncWrites = false

func engineConfig(c *workload.Corpus, dir string) nnexus.Config {
	return nnexus.Config{Scheme: c.Scheme, DataDir: dir, CompileAutomaton: true, SyncWrites: syncWrites}
}

// importCorpus loads the first n generated entries, in order, so engine IDs
// equal generator indexes, and returns each batch's duration.
func importCorpus(eng *nnexus.Engine, c *workload.Corpus, n int) ([]time.Duration, error) {
	if err := eng.AddDomain(nnexus.Domain{
		Name:        domainName,
		URLTemplate: "http://" + domainName + "/?op=getobj&id={id}",
		Scheme:      c.Scheme.Name(),
		Priority:    1,
	}); err != nil {
		return nil, err
	}
	var times []time.Duration
	for lo := 0; lo < n; lo += importBatch {
		hi := min(lo+importBatch, n)
		batch := make([]*nnexus.Entry, 0, hi-lo)
		for _, ge := range c.Entries[lo:hi] {
			batch = append(batch, entryOf(ge))
		}
		start := time.Now()
		ids, err := eng.AddEntries(batch)
		if err != nil {
			return nil, fmt.Errorf("import batch at %d: %w", lo, err)
		}
		times = append(times, time.Since(start))
		if ids[0] != int64(lo+1) {
			return nil, fmt.Errorf("import batch at %d got first ID %d", lo, ids[0])
		}
	}
	return times, nil
}

// policies builds the overlink-fixing policy of every common-word concept.
func policies(c *workload.Corpus) (map[int]string, error) {
	out := make(map[int]string)
	for _, w := range workload.CommonWords()[:c.Params.CommonConcepts] {
		idx, text, err := c.PolicyFor(w)
		if err != nil {
			return nil, err
		}
		out[idx] = text
	}
	return out, nil
}

// entryOf copies a generated entry for the engine, which assigns the ID.
func entryOf(ge *workload.GenEntry) *nnexus.Entry {
	e := *ge.Entry
	e.Domain = domainName
	return &e
}

func waitAutomaton(eng *nnexus.Engine) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ai := eng.AutomatonInfo()
		if ai.Compiled && ai.Generation == ai.SnapshotGeneration {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("automaton still at generation %d of %d after 60s", ai.Generation, ai.SnapshotGeneration)
		}
		time.Sleep(time.Millisecond)
	}
}

// newFixture generates the corpus and cuts the served prefix from it. The
// engine does not exist yet: what a workload sends derives from the corpus
// alone.
func newFixture(cfg config) (*fixture, error) {
	f := &fixture{cfg: cfg, dir: filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d", cfg.workload, os.Getpid()))}
	var err error
	if f.corpus, f.generateS, err = generate(cfg); err != nil {
		return nil, err
	}
	f.served = f.corpus.Subset(max(cfg.entries-heldOut, cfg.entries/2))
	if f.policies, err = policies(f.corpus); err != nil {
		return nil, err
	}
	return f, nil
}

// setUp performs the common set-up of the serving workloads setupReps times
// over, keeps the last system and records the median time: a single set-up
// of four seconds says as much about the host's mood as about the code.
// conns is how many connections the workload dials (none: it links
// in-process and nothing is served); warm is its i-th warm-up op.
func (f *fixture) setUp(conns int, warm func(i int) error) error {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		f.stop()
		s := startSampler()
		err := f.start(conns, warm)
		b := s.finish()
		if err != nil {
			f.stop()
			return err
		}
		times = append(times, b.seconds())
	}
	f.setupS = median(times)
	return nil
}

// start is one set-up: import, install the policies, relink so that no entry
// starts invalid, wait for the automaton, listen and dial, warm up.
func (f *fixture) start(conns int, warm func(i int) error) (err error) {
	if err = os.RemoveAll(f.dir); err != nil {
		return err
	}
	if f.eng, err = nnexus.New(engineConfig(f.corpus, f.dir)); err != nil {
		return err
	}
	if f.batchTimes, err = importCorpus(f.eng, f.corpus, len(f.served.Entries)); err != nil {
		return err
	}
	for idx := 1; idx <= len(f.policies); idx++ { // the definers are the first entries
		if err = f.eng.SetPolicy(int64(idx), f.policies[idx]); err != nil {
			return err
		}
	}
	if _, err = f.eng.RelinkInvalidatedParallel(2); err != nil {
		return err
	}
	if err = waitAutomaton(f.eng); err != nil {
		return err
	}
	if conns > 0 {
		var addr string
		if f.srv, addr, err = f.eng.Serve("127.0.0.1:0", nil); err != nil {
			return err
		}
		for i := 0; i < conns; i++ {
			c, err := nnexus.Dial(addr)
			if err != nil {
				return err
			}
			f.conns = append(f.conns, c)
		}
	}
	for i := 0; i < warmupOps; i++ {
		if err = warm(i); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	runtime.GC()
	return nil
}

// stop closes everything a set-up started and removes its data.
func (f *fixture) stop() {
	for _, c := range f.conns {
		c.Close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
	if f.eng != nil {
		f.eng.Close()
	}
	f.conns, f.srv, f.eng = nil, nil, nil
	os.RemoveAll(f.dir)
}

// dirBytes is the size of the files directly inside dir, which is all a
// store keeps.
func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// quality links every served entry in-process and scores the links against
// the generator's ground truth. (A 1000-entry sample moved precision by 0.8%
// between seeds, most of it sampling noise.)
func (f *fixture) quality() (metrics.Counts, error) {
	var total metrics.Counts
	for _, ge := range f.served.Entries {
		res, err := f.eng.LinkEntry(int64(ge.Index), nnexus.LinkOptions{})
		if err != nil {
			return total, err
		}
		total.Add(metrics.Evaluate(res, ge.Truth, metrics.Identity))
	}
	return total, nil
}

// counters are the process- and engine-wide counts a timed phase is
// bracketed with.
type counters struct {
	alloc      float64
	auto       nnexus.AutomatonInfo
	distHits   float64
	distMisses float64
}

func readCounters(eng *nnexus.Engine) counters {
	c := counters{alloc: totalAlloc()}
	if eng != nil {
		c.auto = eng.AutomatonInfo()
		snap := eng.TelemetrySnapshot()
		c.distHits, _ = snap["nnexus_distance_cache_hits_total"].(float64)
		c.distMisses, _ = snap["nnexus_distance_cache_misses_total"].(float64)
	}
	return c
}

// phaseCost is what a timed phase cost the whole process beyond time.
type phaseCost struct {
	allocKBOp        float64
	builds           float64
	fallbackRatio    float64
	distanceHitRatio float64
}

func (a counters) until(b counters, ops int64) phaseCost {
	pc := phaseCost{
		allocKBOp: (b.alloc - a.alloc) / 1024 / float64(ops),
		builds:    float64(b.auto.Builds - a.auto.Builds),
	}
	fallback := float64(b.auto.FallbackScans - a.auto.FallbackScans)
	if scans := fallback + float64(b.auto.AutomatonScans-a.auto.AutomatonScans); scans > 0 {
		pc.fallbackRatio = fallback / scans
	}
	hits := b.distHits - a.distHits
	if lookups := hits + b.distMisses - a.distMisses; lookups > 0 {
		pc.distanceHitRatio = hits / lookups
	}
	return pc
}

// liveHeapMB is the heap still in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
