package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
	}{
		{100, 50, 50, 50},
		{100, 99, 99, 1},
		{1000, 99, 990, 10},
		{999, 99, 990, 9},
		{1, 99, 1, 0},
	} {
		got, beyond := percentile(seq(tc.n), tc.q)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("p%g of 1..%d = %g with %d beyond, want %g with %d", tc.q, tc.n, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("empty sample gave %g, %d", v, beyond)
	}
}

// A block measured on a host at half speed takes twice as long; on the
// nominal host's clock it must read the same, and one bad block must not
// move the medians.
func TestTimingsAreTakenToTheNominalHost(t *testing.T) {
	calm := blockStat{block: block{wallS: 1, cpuS: 1.5, speed: 1}, ops: 1000, latMs: []float64{1, 2, 3}}
	slow := blockStat{block: block{wallS: 2, cpuS: 3, speed: 0.5}, ops: 1000, latMs: []float64{2, 4, 6}}
	stalled := blockStat{block: block{wallS: 9, cpuS: 9, speed: 1}, ops: 1000, latMs: []float64{100, 200, 300}}
	r := newReport()
	r.timings([]blockStat{calm, slow, stalled}, false)
	r.latencies([]blockStat{calm, slow, stalled}, false)
	for name, want := range map[string]float64{"ops_s": 1000, "cpu_ms_op": 1.5, "op_p50_ms": 2, "host.speed_ratio": 1} {
		if got := r.values[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestMeterSpeedIsNominalOverMedianSlice(t *testing.T) {
	ref, err := newReference(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	m := &meter{ref: ref}
	ran := 0
	for i := 0; i < 3; i++ {
		m.slice(func() { ran++ })
	}
	if m.err != nil || ran != 3 || len(m.refs) != 3 {
		t.Fatalf("err %v, %d workload slices, %d reference slices", m.err, ran, len(m.refs))
	}
	m.refs = []float64{float64(echoNominal) * 2, float64(echoNominal) * 4, float64(echoNominal) * 100}
	m.wall, m.cpu = 3*time.Second, 2*time.Second
	if b := m.take(); b.speed != 0.25 || b.seconds() != 0.75 || b.cpuSeconds() != 0.5 {
		t.Errorf("speed %g, %g s and %g CPU s on the nominal host; want 0.25, 0.75 and 0.5", b.speed, b.seconds(), b.cpuSeconds())
	}
	if m.wall != 0 || m.cpu != 0 || len(m.refs) != 0 {
		t.Errorf("take left %+v behind", m)
	}
}

func TestSamplerReadsTheHostBesideTheWork(t *testing.T) {
	s := startSampler()
	time.Sleep(10 * samplePeriod)
	b := s.finish()
	if len(s.samples) < 3 || b.speed <= 0 || b.wallS < 10*samplePeriod.Seconds() || b.cpuS > b.wallS {
		t.Errorf("%d samples, block %+v", len(s.samples), b)
	}
}

// The reference must not allocate: its slices run inside the phase whose
// allocations alloc_kb_op reports.
func TestReferenceUnitAllocatesNothing(t *testing.T) {
	buf := refLink(make([]byte, 0, 4*len(refText)), refText)
	if !strings.Contains(string(buf), "<a href=") {
		t.Fatal("the reference linked nothing")
	}
	if n := testing.AllocsPerRun(10, func() { buf = refLink(buf, refText) }); n != 0 {
		t.Errorf("a reference unit allocates %g times", n)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three values = %g, %g", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.link", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "tokenizer.tokenize", Start: 100, End: 110},
		{ID: 3, Parent: 1, Name: "render.apply", Start: 110, End: 170},
		{ID: 4, Name: "core.link", Start: 300, End: 320},
		{ID: 5, Parent: 4, Name: "render.apply", Start: 320, End: 350}, // a GC fell into the replay
		{ID: 6, Name: "wire.encode", Start: 400, End: 440},
	}
	byName, exceeded := selfTimes(spans)
	if len(exceeded) != 0 {
		t.Errorf("exceeded = %v: one child outrunning its parent must not make the sums inconsistent", exceeded)
	}
	for name, want := range map[string]layerTime{
		"core.link":          {Count: 2, Total: 120, Self: 20}, // 120 - 10 - 60 - 30
		"tokenizer.tokenize": {Count: 1, Total: 10, Self: 10},
		"render.apply":       {Count: 2, Total: 90, Self: 90},
		"wire.encode":        {Count: 1, Total: 40, Self: 40},
	} {
		if got := *byName[name]; got != want {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
	if got := byName["core.link"].perOp(true, 2); got != 0.01 {
		t.Errorf("core.link self per op = %g us", got)
	}
	if got := byName["missing"].perOp(false, 2); got != 0 {
		t.Errorf("an absent layer reported %g", got)
	}

	spans = append(spans, span{ID: 7, Parent: 6, Name: "xml.escape", Start: 440, End: 500})
	if _, exceeded = selfTimes(spans); len(exceeded) != 1 || exceeded[0] != "wire.encode" {
		t.Errorf("exceeded = %v, want [wire.encode]", exceeded)
	}
}

// streamDigest hashes every input a workload would send for a seed.
func streamDigest(t *testing.T, seed int64) string {
	t.Helper()
	cfg := config{seed: seed, entries: 300}
	c, _, err := generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := 200
	f := &fixture{cfg: cfg, corpus: c, served: c.Subset(base)}
	pol, err := policies(c)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := authorCycles(seed, c, pol, base, 40)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%q\n%q\n", snippetOps(f), documentOps(f))
	for _, cy := range cycles {
		fmt.Fprintf(h, "%+v %+v %v\n", cy.add, cy.update, cy.reads)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameOpStream(t *testing.T) {
	a, b, other := streamDigest(t, 7), streamDigest(t, 7), streamDigest(t, 8)
	if a != b {
		t.Error("one seed gave two different op streams")
	}
	if a == other {
		t.Error("two seeds gave the same op stream")
	}
}

func smokeConfig(t *testing.T, w *workloadDef, trace bool) config {
	return config{workload: w.Name, seed: 11, duration: 200 * time.Millisecond, trace: trace,
		entries: 200, replay: 40, outDir: t.TempDir()}
}

// realProblems drops the one problem a 40-op replay cannot rule out: a
// garbage collection inside a stage's standalone replay outweighing its
// parent.
func realProblems(r *report) []string {
	var out []string
	for _, p := range r.problems {
		if !strings.HasPrefix(p, "trace:") {
			out = append(out, p)
		}
	}
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			r, err := w.run(smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 || len(r.problems) > 0 {
				t.Errorf("attempted %d, failed %d, problems %q", r.attempted, r.failed, r.problems)
			}
			for _, d := range endToEnd {
				if v, ok := r.values[d.Name]; !ok || v <= 0 {
					t.Errorf("%s = %g (present %v): every end-to-end metric must be positive on every workload", d.Name, v, ok)
				}
			}
			line := r.render(endToEnd)
			line = line[strings.LastIndexByte(string(line[:len(line)-1]), '\n')+1:]
			var res result
			if err := json.Unmarshal(line, &res); err != nil || len(res.Metrics) != len(endToEnd) {
				t.Errorf("last line %q: %v", line, err)
			}
		})
	}
}

func TestSmokeTracedEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t, w, true)
			r, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || len(realProblems(r)) > 0 {
				t.Errorf("failed %d, problems %q", r.failed, r.problems)
			}
			wired := w.Name == "snippet_read" || w.Name == "author_mix"
			// What only one workload reaches is 0 on the others.
			only := map[string]string{
				"client.write_p50_ms": "author_mix", "invindex.invalidated_per_write": "author_mix",
				"core.recover_s": "bulk_recover", "storage.replay_s": "bulk_recover", "storage.wal_bytes_per_user_byte": "bulk_recover",
			}
			for _, d := range perLayer {
				if d.Name == "core.self_us_op" {
					continue // a difference of means over 40 ops; realProblems explains
				}
				layer, _, _ := strings.Cut(d.Name, ".")
				reached := wired || (layer != "wire" && layer != "client" && layer != "server")
				if on, ok := only[d.Name]; ok {
					reached = on == w.Name
				}
				// These may honestly be 0: no fallback scan, no compile and
				// no distance lookup need happen in 200 ms, 200 entries are
				// too few import batches to compare quarters, and the CPU
				// clock is too coarse for 40 round trips.
				mayBeZero := d.Name == "conceptmap.fallback_ratio" || d.Name == "conceptmap.builds" ||
					d.Name == "cache.distance_hit_ratio" || d.Name == "core.import_slowdown_ratio" ||
					d.Name == "server.overhead_us_op"
				if v := r.values[d.Name]; v < 0 || (reached && !mayBeZero && v == 0) || (!reached && v != 0) {
					t.Errorf("%s = %g (reached by this workload: %v)", d.Name, v, reached)
				}
			}

			f, err := os.Open(filepath.Join(cfg.outDir, w.Name+".trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var spans []span
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatal(err)
				}
				spans = append(spans, s)
			}
			names := map[string]bool{}
			for i, s := range spans {
				names[s.Name] = true
				if s.ID != i+1 || s.Parent >= s.ID || s.End < s.Start {
					t.Fatalf("span %d is malformed: %+v", i, s)
				}
				if s.Parent != 0 && spans[s.Parent-1].Op != s.Op {
					t.Fatalf("span %+v has a parent of another op", s)
				}
				if strings.HasPrefix(s.Name, "wire.") && !wired {
					t.Fatalf("%s recorded a wire span: %+v", w.Name, s)
				}
			}
			for _, want := range []string{"core.link", "tokenizer.tokenize", "conceptmap.scan", "conceptmap.scan_fallback", "render.apply"} {
				if !names[want] {
					t.Errorf("no %s span in the trace", want)
				}
			}
			if wired && !(names["client.read"] && names["wire.encode"] && names["wire.decode"]) {
				t.Errorf("wire-side spans missing: %v", names)
			}
		})
	}
}

func TestAuthorMixRepeatsExactly(t *testing.T) {
	w := workloadByName("author_mix")
	var first *report
	for i := 0; i < 2; i++ {
		r, err := w.run(smokeConfig(t, w, false))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
			continue
		}
		for _, exact := range []string{"invindex.invalidated_per_write", "precision", "recall"} {
			if r.values[exact] != first.values[exact] {
				t.Errorf("%s: %g then %g on one seed", exact, first.values[exact], r.values[exact])
			}
		}
		if r.checksum != first.checksum {
			t.Errorf("link checksum %d then %d on one seed", first.checksum, r.checksum)
		}
	}
}

func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the tables have %d, %d, %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	for i, e := range m.EndToEnd {
		if d := endToEnd[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, table has %+v", i, e, d)
		}
	}
	for i, e := range m.PerLayer {
		if d := perLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %d: %+v, table has %+v", i, e, d)
		}
	}
}
