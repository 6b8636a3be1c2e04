// Command benchmarks is the repository's benchmark: it assembles an engine
// the way a user does (nnexus.New, Engine.Serve, nnexus.Dial), drives one of
// four seeded workloads against it, checks the outputs and prints every
// metric of BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// maxProcs: the benchmark hosts client and server in one process on the
	// two cores this class of sandbox has; callers never outnumber them.
	maxProcs = 2
	// replayOps is how many of the workload's ops a traced run replays
	// through the layers.
	replayOps = 2000
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object the driver reads from the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace, seconds int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "one of snippet_read, document_read, author_mix, bulk_recover")
	flag.Int64Var(&cfg.seed, "seed", 20090601, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 16, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for the engine's data and the trace files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in two interleaved sets and compare their medians")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.replay = replayOps

	runtime.GOMAXPROCS(maxProcs)
	if selfcheck {
		os.Exit(runSelfcheck(cfg))
	}
	w := workloadByName(cfg.workload)
	if w == nil || flag.NArg() > 0 || seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.entries = corpusEntries
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
	printHost(cfg)
	r, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	os.Stdout.Write(r.render(defs))
}

// render prints the run for a reader and, as the last line, for the driver.
func (r *report) render(defs []metricDef) []byte {
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var out []byte
	for _, d := range defs {
		v := r.values[d.Name]
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		out = fmt.Appendf(out, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	out = fmt.Appendf(out, "ops attempted=%d failed=%d\n", r.attempted, r.failed)
	out = fmt.Appendf(out, "check link_checksum=%d\n", r.checksum)
	for _, n := range r.notes {
		out = fmt.Appendf(out, "%s\n", n)
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		out = fmt.Appendf(out, "PROBLEM %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil { // a NaN or an infinity: report the run as failed, not as a number
		line, _ = json.Marshal(result{Attempted: max(r.attempted, 1), Failed: max(r.attempted, 1), Metrics: map[string]metricValue{}})
	}
	return append(append(out, line...), '\n')
}

func printHost(cfg config) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host numcpu=%d gomaxprocs=%d go=%s commit=%s wal_fs=%s sync_writes=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, fsType(cfg.outDir), syncWrites)
	fmt.Printf("run workload=%s seed=%d seconds=%g entries=%d trace=%v\n",
		cfg.workload, cfg.seed, cfg.duration.Seconds(), cfg.entries, cfg.trace)
}
