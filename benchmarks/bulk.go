package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nnexus"
	"nnexus/internal/core"
	"nnexus/internal/storage"
)

const (
	bulkReps = 3
	// bulkSample entries are linked before and after the reopen. The median
	// cost of 200 entries differed by 4% from seed to seed for no other
	// reason than which 200 they were.
	bulkSample = 1000
	// samplePasses is how often the sample is linked each time: half a
	// second beside one sampler, which needs a hundred samples to read the
	// host to a few percent.
	samplePasses = 5
	// bulkGenerations is how often the corpus is generated for one reading
	// of this workload's set-up time, for the same reason.
	bulkGenerations = 5
)

// bulkRep is one import-close-reopen repetition. Every block of it ran
// beside a sampler.
type bulkRep struct {
	setup      block // corpus generation, bulkGenerations times over: all the set-up this workload has
	load       block // nnexus.New on an empty directory, the import, until the automaton is current
	recov      block // nnexus.New on the imported directory until the automaton is current
	builds     int64
	allocKBOp  float64
	replayS    float64 // traced runs only: storage.Open alone on the closed directory
	walRatio   float64 // bytes on disk after the import per byte of entry imported
	batchTimes []time.Duration
	sample     []int // 0-based generator positions of the link sample
	// reads holds the link sample's latencies, before the reopen and after
	// it as two blocks: the first pass of each also clears every entry's
	// invalid flag.
	reads [2]blockStat
	links int64 // links in the sample, which the reopen must reproduce
}

// runBulkRep imports the whole corpus into an empty directory, closes,
// reopens and checks that nothing acknowledged was lost. The fixture it
// returns holds the reopened engine; the caller closes it.
func runBulkRep(cfg config, dir string, tr *tracer) (rep *bulkRep, f *fixture, problems []string, err error) {
	rep = &bulkRep{}
	f = &fixture{cfg: cfg, dir: dir}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	s := startSampler()
	for i := 0; i < bulkGenerations && err == nil; i++ {
		f.corpus, f.generateS, err = generate(cfg)
	}
	rep.setup = s.finish()
	if err != nil {
		return rep, f, nil, err
	}
	f.served = f.corpus
	n := len(f.corpus.Entries)
	if err = os.RemoveAll(dir); err != nil {
		return rep, f, nil, err
	}
	rep.sample = rand.New(rand.NewSource(cfg.seed ^ 0xb01)).Perm(n)[:min(bulkSample, n)]
	// linkSample links the sample samplePasses times over on a current
	// automaton and returns the first pass's outputs.
	linkSample := func(pass int) (outputs []string, links int64, err error) {
		// Right after an import or a replay the sample would run beside
		// whatever is left of a collection cycle, or not, and its median
		// would say which.
		runtime.GC()
		st := &rep.reads[pass]
		s := startSampler()
		for p := 0; p < samplePasses && err == nil; p++ {
			for _, i := range rep.sample {
				t0 := time.Now()
				var res *nnexus.Result
				if res, err = f.eng.LinkEntry(int64(i+1), nnexus.LinkOptions{}); err != nil {
					break
				}
				st.latMs = append(st.latMs, float64(time.Since(t0))/1e6)
				if p == 0 {
					outputs = append(outputs, res.Output)
					links += int64(len(res.Links))
				}
			}
		}
		st.block, st.ops = s.finish(), int64(len(st.latMs))
		return outputs, links, err
	}
	record := func(name string, op int, fn func() error) error {
		if tr == nil {
			return fn()
		}
		var err error
		tr.record(name, 0, op, func() { err = fn() })
		return err
	}

	alloc := -totalAlloc()
	s = startSampler()
	err = record("core.import", 0, func() (err error) {
		if f.eng, err = nnexus.New(engineConfig(f.corpus, dir)); err != nil {
			return err
		}
		if rep.batchTimes, err = importCorpus(f.eng, f.corpus, n); err != nil {
			return err
		}
		// The sample is linked on a current automaton both times, or its
		// latency would depend on how far the compiler trails the import.
		return waitAutomaton(f.eng)
	})
	rep.load = s.finish()
	alloc += totalAlloc()
	if err != nil {
		return rep, f, nil, err
	}
	rep.builds = f.eng.AutomatonInfo().Builds
	want, links, err := linkSample(0)
	if err != nil {
		return rep, f, nil, err
	}
	rep.links = links
	if err = f.eng.Close(); err != nil {
		return rep, f, nil, err
	}
	f.eng = nil
	var userBytes int64
	for _, ge := range f.corpus.Entries {
		userBytes += core.EntrySize(ge.Entry)
	}
	rep.walRatio = float64(dirBytes(dir)) / float64(userBytes)
	if tr != nil {
		var st *storage.Store
		err = record("storage.replay", 1, func() (err error) {
			st, err = storage.Open(dir)
			return err
		})
		if err != nil {
			return rep, f, nil, err
		}
		rep.replayS = float64(tr.spans[len(tr.spans)-1].End-tr.spans[len(tr.spans)-1].Start) / 1e9
		if err = st.Close(); err != nil {
			return rep, f, nil, err
		}
	}

	alloc -= totalAlloc()
	s = startSampler()
	err = record("core.recover", 1, func() (err error) {
		if f.eng, err = nnexus.New(engineConfig(f.corpus, dir)); err != nil {
			return err
		}
		return waitAutomaton(f.eng)
	})
	rep.recov = s.finish()
	if err != nil {
		return rep, f, nil, err
	}
	alloc += totalAlloc()
	rep.allocKBOp = alloc / 1024 / float64(n)
	missing := 0
	for id := int64(1); id <= int64(n); id++ {
		if _, ok := f.eng.Entry(id); !ok {
			missing++
		}
	}
	if missing > 0 {
		problems = append(problems, fmt.Sprintf("%d acknowledged entries are missing after the reopen", missing))
	}
	got, _, err := linkSample(1)
	if err != nil {
		return rep, f, nil, err
	}
	differ := 0
	for i := range want {
		if got[i] != want[i] {
			differ++
		}
	}
	if differ > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d sampled entries link differently after the reopen", differ, len(want)))
	}
	return rep, f, problems, nil
}

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

func bulkDir(cfg config, rep int) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d-%d", cfg.workload, os.Getpid(), rep))
}
