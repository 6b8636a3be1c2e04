package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "operations")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registering the same name returns the same series.
	again := r.Counter("ops_total", "operations")
	again.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter after re-register = %d, want 6", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestVecChildrenAreDistinct(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "requests", "endpoint")
	a := v.With("/api/link")
	b := v.With("/api/stats")
	a.Add(3)
	b.Inc()
	if a.Value() != 3 || b.Value() != 1 {
		t.Fatalf("children = %d, %d; want 3, 1", a.Value(), b.Value())
	}
	// Same label values resolve to the same child.
	if v.With("/api/link").Value() != 3 {
		t.Fatal("With did not return the cached child")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", 0.1, 0.2, 0.5, 1)
	for i := 0; i < 100; i++ {
		h.Observe(0.15) // all land in the (0.1, 0.2] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := h.Sum(); math.Abs(got-15.0) > 1e-9 {
		t.Fatalf("sum = %v, want 15", got)
	}
	// Every quantile interpolates within the single occupied bucket.
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.Quantile(q)
		if got < 0.1 || got > 0.2 {
			t.Fatalf("q%v = %v, want within (0.1, 0.2]", q, got)
		}
	}
}

func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", 1, 2, 4)
	// 50 obs ≤ 1, 30 in (1,2], 20 in (2,4].
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 30; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 20; i++ {
		h.Observe(3)
	}
	if got := h.Quantile(0.5); got < 0.9 || got > 1.0 {
		t.Fatalf("p50 = %v, want ~1.0", got)
	}
	if got := h.Quantile(0.8); got < 1.9 || got > 2.0 {
		t.Fatalf("p80 = %v, want ~2.0", got)
	}
	if got := h.Quantile(0.9); got < 2 || got > 4 {
		t.Fatalf("p90 = %v, want in (2,4]", got)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", 1, 2)
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram quantile = %v, want NaN", got)
	}
	h.Observe(100) // +Inf bucket only
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("all-overflow quantile = %v, want clamp to 2", got)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("live", "live value", func() float64 { n++; return n })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "live 42") {
		t.Fatalf("exposition missing func gauge:\n%s", sb.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	v := r.CounterVec("v", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := v.With("shared")
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) * 1e-6)
				child.Inc()
			}
		}(i)
	}
	// Concurrent scrapes must not race with writers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
			_ = r.Snapshot()
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if v.With("shared").Value() != 8000 {
		t.Fatalf("vec child = %d, want 8000", v.With("shared").Value())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain", "").Add(7)
	r.CounterVec("labeled", "", "op").With("add").Add(2)
	r.CounterVec("absent", "", "shard").With("").Add(3)
	r.CounterVec("partial", "", "op", "shard").With("add", "").Add(4)
	h := r.Histogram("lat", "", 1, 2)
	h.Observe(0.5)
	snap := r.Snapshot()
	if snap["plain"].(float64) != 7 {
		t.Fatalf("plain = %v", snap["plain"])
	}
	labeled := snap["labeled"].(map[string]interface{})
	if labeled["op=add"].(float64) != 2 {
		t.Fatalf("labeled = %v", labeled)
	}
	// An empty label value is absent: a family whose one series has no label
	// present is a plain value, and keys leave absent labels out.
	if snap["absent"].(float64) != 3 {
		t.Fatalf("absent = %v", snap["absent"])
	}
	if partial := snap["partial"].(map[string]interface{}); partial["op=add"].(float64) != 4 {
		t.Fatalf("partial = %v", partial)
	}
	lat := snap["lat"].(map[string]interface{})
	if lat["count"].(uint64) != 1 {
		t.Fatalf("lat = %v", lat)
	}
	if _, ok := lat["p99"]; !ok {
		t.Fatalf("lat summary missing p99: %v", lat)
	}
}
