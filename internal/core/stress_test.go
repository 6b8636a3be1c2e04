package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nnexus/internal/classification"
	"nnexus/internal/corpus"
)

// TestConcurrentEngineStress hammers the engine's full concurrent surface —
// linking, mutation, cached rendering, parallel relinking, telemetry
// scrapes — from many goroutines at once, so `go test -race` exercises the
// RWMutex paths, the index locks, and every telemetry instrument under
// contention. It asserts nothing subtle; its value is that the race
// detector sees real interleavings.
func TestConcurrentEngineStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	e, err := NewEngine(Config{Scheme: classification.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddDomain(corpus.Domain{
		Name: "stress", URLTemplate: "http://s/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Seed concepts that the stress bodies invoke.
	titles := []string{"planar graph", "graph", "even number", "orthogonal function", "field"}
	classes := [][]string{{"05C10"}, {"05C99"}, {"11A51"}, {"42C05"}, {"12D99"}}
	for i, title := range titles {
		if _, err := e.AddEntry(&corpus.Entry{
			Domain:  "stress",
			Title:   title,
			Classes: classes[i],
			Body:    "a body mentioning a graph and a field",
		}); err != nil {
			t.Fatal(err)
		}
	}

	const (
		linkers   = 4
		writers   = 2
		relinkers = 2
		scrapers  = 2
		iters     = 150
	)
	var (
		wg    sync.WaitGroup
		fails atomic.Int64
	)
	fail := func(format string, args ...interface{}) {
		fails.Add(1)
		t.Errorf(format, args...)
	}

	// Linkers: free-text linking and cached entry rendering.
	for g := 0; g < linkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			text := "every planar graph is a graph over a field with an orthogonal function"
			for i := 0; i < iters; i++ {
				if _, err := e.LinkText(text, LinkOptions{SourceClasses: []string{"05C10"}}); err != nil {
					fail("LinkText: %v", err)
					return
				}
				id := int64(i%len(titles) + 1)
				if _, _, err := e.LinkEntryCached(id); err != nil {
					// Entries are never removed, so any error is real.
					fail("LinkEntryCached(%d): %v", id, err)
					return
				}
			}
		}(g)
	}

	// Writers: add new entries (churning the concept map and invalidation
	// index) and update the seeds (churning labels both ways).
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				entry := corpus.Entry{
					Domain:  "stress",
					Title:   fmt.Sprintf("stress concept %d-%d", g, i),
					Classes: []string{"05C10"},
					Body:    "mentions a planar graph and an even number",
				}
				if _, err := e.AddEntry(&entry); err != nil {
					fail("AddEntry: %v", err)
					return
				}
				seed := int64(i%len(titles) + 1)
				cur, ok := e.Entry(seed)
				if !ok {
					fail("Entry(%d) vanished", seed)
					return
				}
				cur.Body = fmt.Sprintf("updated body %d mentioning a graph", i)
				if err := e.UpdateEntry(cur); err != nil {
					fail("UpdateEntry: %v", err)
					return
				}
			}
		}(g)
	}

	// Relinkers: drain the invalidation queue with the parallel worker
	// pool while writers keep refilling it.
	for g := 0; g < relinkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				if _, err := e.RelinkBatch(nil, 4); err != nil {
					fail("RelinkBatch: %v", err)
					return
				}
			}
		}()
	}

	// Scrapers: concurrent telemetry exposition and read-side queries, as
	// a Prometheus collector and stats endpoint would do under traffic.
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var sb strings.Builder
				if err := e.Telemetry().WritePrometheus(&sb); err != nil {
					fail("WritePrometheus: %v", err)
					return
				}
				_ = e.Telemetry().Snapshot()
				_ = e.Metrics()
				_ = e.Invalidated()
				_, _ = e.CacheStats()
				_ = e.NumEntries()
			}
		}()
	}

	wg.Wait()
	if fails.Load() > 0 {
		return
	}

	// Sanity: the telemetry counters saw the traffic.
	snap := e.Telemetry().Snapshot()
	ops := snap["nnexus_engine_operations_total"].(map[string]interface{})
	wantAdds := float64(len(titles) + writers*iters)
	if got := ops["op=add_entry"].(float64); got != wantAdds {
		t.Errorf("op=add_entry = %v, want %v", got, wantAdds)
	}
	if got := ops["op=update_entry"].(float64); got != float64(writers*iters) {
		t.Errorf("op=update_entry = %v, want %v", got, float64(writers*iters))
	}
	linkTexts := ops["op=link_text"].(float64)
	if linkTexts < float64(linkers*iters) {
		t.Errorf("op=link_text = %v, want ≥ %v", linkTexts, linkers*iters)
	}
	link := snap["nnexus_link_duration_seconds"].(map[string]interface{})
	if got := link["count"].(uint64); float64(got) != linkTexts {
		t.Errorf("link duration count = %v, want %v (every pipeline run observed)", got, linkTexts)
	}
}
