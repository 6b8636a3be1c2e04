package core

import (
	"fmt"
	"strings"
	"testing"

	"nnexus/internal/corpus"
)

// TestAutomatonTelemetryExposition is the exposition-format contract for
// the automaton metric family: the scan-path split counters, the build
// histogram, and the size/staleness gauges must appear under their
// documented names and types, and must reflect driven traffic.
func TestAutomatonTelemetryExposition(t *testing.T) {
	// An engine without the compiler serves every scan from the fallback;
	// the families must still expose, with the automaton side at zero.
	e := fig1Engine(t, Config{})
	if _, err := e.LinkText("every planar graph is nice", LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	out := scrape(t, e)
	for _, want := range []string{
		"# TYPE nnexus_scan_automaton_total counter",
		"nnexus_scan_automaton_total 0",
		"# TYPE nnexus_scan_fallback_total counter",
		"nnexus_scan_fallback_total 1",
		"# TYPE nnexus_automaton_build_seconds histogram",
		"nnexus_automaton_build_seconds_count 0",
		"# TYPE nnexus_automaton_states gauge",
		"nnexus_automaton_states 0",
		"# TYPE nnexus_automaton_edges gauge",
		"# TYPE nnexus_automaton_words gauge",
		"# TYPE nnexus_automaton_labels gauge",
		"# TYPE nnexus_automaton_generation_lag gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fallback-only exposition is missing %q", want)
		}
	}

	// With the compiler on and caught up (CompileNow returns only after any
	// in-flight background build has been observed), a LinkText is served
	// by the automaton and the gauges describe the published machine.
	e2 := fig1Engine(t, Config{CompileAutomaton: true})
	defer e2.Close()
	e2.nsFor(e2.DefaultCorpus()).cmap.CompileNow()
	if _, err := e2.LinkText("every planar graph is nice", LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	out = scrape(t, e2)
	if strings.Contains(out, "nnexus_scan_automaton_total 0") {
		t.Error("automaton engine served no automaton scans")
	}
	if strings.Contains(out, "nnexus_automaton_build_seconds_count 0") {
		t.Error("automaton build histogram observed nothing")
	}
	if strings.Contains(out, "nnexus_automaton_states 0") {
		t.Error("automaton states gauge is zero after a compile")
	}
	if !strings.Contains(out, "nnexus_automaton_generation_lag 0") {
		t.Error("caught-up automaton reports a nonzero generation lag")
	}
	// The per-path match-stage children share the stage histogram family.
	for _, want := range []string{
		`nnexus_pipeline_stage_duration_seconds_count{stage="match_automaton"} 1`,
		`nnexus_pipeline_stage_duration_seconds_count{stage="match_fallback"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("automaton exposition is missing %q", want)
		}
	}
}

// TestAutomatonTelemetryCoversEveryCorpus: every corpus runs its own concept
// map and compiler, and the scan counters and automaton gauges sum over all
// of them — a scan in a second corpus moves nnexus_scan_*_total, and its
// compiled labels count in nnexus_automaton_labels.
func TestAutomatonTelemetryCoversEveryCorpus(t *testing.T) {
	for _, compile := range []bool{false, true} {
		e := fig1Engine(t, Config{CompileAutomaton: compile})
		defer e.Close()
		if _, err := e.AddEntry(&corpus.Entry{Corpus: "wiki", Domain: "planetmath.org", Title: "matroid"}); err != nil {
			t.Fatal(err)
		}
		if compile {
			for _, name := range e.Corpora() {
				e.nsFor(name).cmap.CompileNow()
			}
		}
		for _, source := range []string{"", "wiki"} {
			if _, err := e.LinkText("a planar graph and a matroid", LinkOptions{SourceCorpus: source}); err != nil {
				t.Fatal(err)
			}
		}
		out := scrape(t, e)
		path, idle := "nnexus_scan_fallback_total", "nnexus_scan_automaton_total"
		if compile {
			path, idle = idle, path
			if want := fmt.Sprintf("nnexus_automaton_labels %d\n", e.NumConcepts()); !strings.Contains(out, want) {
				t.Errorf("compiled engine exposition is missing %q:\n%s", want, out)
			}
		}
		for _, want := range []string{path + " 2\n", idle + " 0\n"} {
			if !strings.Contains(out, want) {
				t.Errorf("compile=%v: exposition is missing %q:\n%s", compile, want, out)
			}
		}
	}
}

func scrape(t *testing.T, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	if err := e.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
