package core

import (
	"strings"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
)

// relinkErrorEngine builds an engine whose invalidation queue contains both
// linkable entries and `broken` IDs that do not resolve to any entry, so a
// relink batch is guaranteed to hit LinkEntry errors part-way through.
// (White-box: invalid IDs of removed entries cannot arise through the
// public API — RemoveEntry clears the flag — so we plant them directly.)
func relinkErrorEngine(t *testing.T, broken int) (*Engine, int) {
	t.Helper()
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{
		Name: "d", URLTemplate: "http://d/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// "graph" is added last so the earlier bodies that mention it are all
	// invalidated.
	for _, title := range []string{"planar graph", "even number", "field", "graph"} {
		if _, err := e.AddEntry(&corpus.Entry{
			Domain: "d", Title: title, Classes: []string{"05C10"},
			Body: "a body about a graph",
		}); err != nil {
			t.Fatal(err)
		}
	}
	good := len(e.Invalidated())
	if good == 0 {
		t.Fatal("setup produced no invalidated entries")
	}
	e.mu.Lock()
	for i := 0; i < broken; i++ {
		e.invalid[int64(1000+i)] = e.seq.Load()
	}
	e.mu.Unlock()
	return e, good
}

// TestRelinkInvalidatedPartialResults: the sequential batch aborts on the
// first error but returns every result completed before it, and the
// telemetry counters match the returned values exactly.
func TestRelinkInvalidatedPartialResults(t *testing.T) {
	e, good := relinkErrorEngine(t, 1)
	out, err := e.RelinkInvalidated()
	if err == nil {
		t.Fatal("relink over a broken ID did not error")
	}
	if !strings.Contains(err.Error(), "unknown entry") {
		t.Fatalf("err = %v, want unknown-entry", err)
	}
	// Invalidated() is sorted, so the real entries (IDs < 1000) all relink
	// before the planted broken ID is reached.
	if len(out) != good {
		t.Fatalf("partial results = %d, want %d", len(out), good)
	}
	snap := e.Telemetry().Snapshot()
	if got := snap["nnexus_relink_entries_total"].(float64); got != float64(good) {
		t.Errorf("relink entries counter = %v, want %v", got, good)
	}
	if got := snap["nnexus_relink_errors_total"].(float64); got != 1 {
		t.Errorf("relink errors counter = %v, want 1", got)
	}
	if got := snap["nnexus_relink_runs_total"].(float64); got != 1 {
		t.Errorf("relink runs counter = %v, want 1", got)
	}
}

// TestRelinkInvalidatedParallelPartialResults: the parallel batch stops
// feeding after the first error, returns the results completed around the
// abort, and the telemetry counters stay consistent with exactly what was
// returned — len(results) successes, and at least the one observed error.
func TestRelinkInvalidatedParallelPartialResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, _ := relinkErrorEngine(t, 3)
		before := len(e.Invalidated())
		out, err := e.RelinkInvalidatedParallel(workers)
		if err == nil {
			t.Fatalf("workers=%d: relink over broken IDs did not error", workers)
		}
		if !strings.Contains(err.Error(), "unknown entry") {
			t.Fatalf("workers=%d: err = %v, want unknown-entry", workers, err)
		}
		if len(out) >= before {
			t.Fatalf("workers=%d: %d results for %d queued: abort did not abort", workers, len(out), before)
		}
		for id, res := range out {
			if res == nil || res.Source != id {
				t.Fatalf("workers=%d: result for %d is %+v", workers, id, res)
			}
		}
		snap := e.Telemetry().Snapshot()
		if got := snap["nnexus_relink_entries_total"].(float64); got != float64(len(out)) {
			t.Errorf("workers=%d: relink entries counter = %v, want %v (must match returned results)",
				workers, got, len(out))
		}
		errs := snap["nnexus_relink_errors_total"].(float64)
		if errs < 1 || errs > 3 {
			t.Errorf("workers=%d: relink errors counter = %v, want within [1,3]", workers, errs)
		}
		// A second batch over the now-smaller queue still works: the
		// successful entries cleared their flags, the broken IDs remain.
		left := len(e.Invalidated())
		if left >= before {
			t.Errorf("workers=%d: queue did not shrink (%d → %d)", workers, before, left)
		}
		if _, err := e.RelinkInvalidatedParallel(workers); err == nil {
			t.Errorf("workers=%d: second batch over remaining broken IDs did not error", workers)
		}
	}
}

// TestRelinkInvalidatedParallelCleanBatch: a batch with no broken IDs
// relinks everything, returns no error, and counts every entry.
func TestRelinkInvalidatedParallelCleanBatch(t *testing.T) {
	e, good := relinkErrorEngine(t, 0)
	out, err := e.RelinkInvalidatedParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != good {
		t.Fatalf("results = %d, want %d", len(out), good)
	}
	if n := len(e.Invalidated()); n != 0 {
		t.Fatalf("queue depth after clean batch = %d, want 0", n)
	}
	snap := e.Telemetry().Snapshot()
	if got := snap["nnexus_relink_entries_total"].(float64); got != float64(good) {
		t.Errorf("relink entries counter = %v, want %v", got, good)
	}
	if got := snap["nnexus_relink_errors_total"].(float64); got != 0 {
		t.Errorf("relink errors counter = %v, want 0", got)
	}
}
