// Package telemetry is the operational metrics substrate of the engine: a
// dependency-free, allocation-light registry of counters, gauges, and
// fixed-bucket latency histograms, with Prometheus text-format exposition
// and a JSON-friendly snapshot.
//
// Where internal/metrics scores link *quality* (precision/recall/mislink
// rate per the paper's §3.2), this package measures link *latency*,
// throughput, cache effectiveness, and invalidation churn — the signals the
// paper's §4 scalability argument needs to be demonstrated on a live server
// rather than only in offline benchmarks.
//
// Design constraints, in order:
//
//  1. Hot-path operations (Counter.Inc, Gauge.Set, Histogram.Observe) are
//     lock-free atomics and perform zero allocations, so instrumenting the
//     linking pipeline costs nanoseconds per call.
//  2. Labeled families (CounterVec, HistogramVec) resolve label values to
//     child series once, at instrumentation setup; the returned child is
//     then as cheap as an unlabeled metric. Resolving (With) may allocate,
//     incrementing never does.
//  3. Exposition is pull-based and pays all formatting cost at scrape time.
//
// A Registry is typically owned by a core.Engine and shared by every layer
// serving it (httpapi middleware, TCP server, daemons).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds metric families in registration order. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []*family
}

// family is one named metric family: a fixed kind, help text, label names,
// and any number of child series keyed by their label values.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
	skeys  []string // sorted lazily at exposition
	dirty  bool
}

// series is one (family, label values) time series.
type series struct {
	labelValues []string

	val  atomic.Int64   // counter / gauge integer value
	fn   func() float64 // func-backed counter / gauge (overrides val)
	hist *Histogram     // histogram series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookupOrCreate returns the family with the given name, creating it on
// first use. Re-registering an existing name with a different kind or label
// arity panics: that is a programming error, not a runtime condition.
func (r *Registry) lookupOrCreate(name, help string, kind Kind, labelNames []string, buckets []float64) *family {
	if name == "" {
		panic("telemetry: metric needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s with %d label(s), was %s with %d",
				name, kind, len(labelNames), f.kind, len(f.labelNames)))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: labelNames,
		buckets:    buckets,
		series:     make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, f)
	return f
}

// child returns the series for the given label values, creating it on first
// use.
func (f *family) child(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label value(s), got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := seriesKey(labelValues)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		s.hist = newHistogram(f.buckets)
	}
	f.series[key] = s
	f.dirty = true
	return s
}

// seriesKey serializes label values into a map key. 0x1f (unit separator)
// cannot legally appear in a metric label the way we use them.
func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, v...)
	}
	return string(b)
}

// sortedSeries returns the family's series sorted by label key, for
// deterministic exposition.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dirty {
		f.skeys = f.skeys[:0]
		for k := range f.series {
			f.skeys = append(f.skeys, k)
		}
		sort.Strings(f.skeys)
		f.dirty = false
	}
	out := make([]*series, len(f.skeys))
	for i, k := range f.skeys {
		out[i] = f.series[k]
	}
	return out
}

// --- Counters ---

// Counter is a monotonically increasing event count.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Add adds n (n must be ≥ 0 for the series to stay monotonic).
func (c *Counter) Add(n int64) { c.s.val.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.s.val.Load() }

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookupOrCreate(name, help, KindCounter, nil, nil)
	return &Counter{s: f.child(nil)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for wrapping an existing monotonic source (e.g. a cache's
// cumulative hit count) without double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.CounterVec(name, help).Func(fn)
}

// CounterVec is a family of counters sharing a name and label names.
type CounterVec struct{ f *family }

// CounterVec registers (or returns the existing) labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.lookupOrCreate(name, help, KindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values, creating it on
// first use. Resolve children once at setup; the child itself is hot-path
// safe and allocation-free.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.child(labelValues)}
}

// Func backs the child for the given label values with fn, read at scrape
// time: CounterFunc for one series of a labeled family.
func (v *CounterVec) Func(fn func() float64, labelValues ...string) {
	v.f.child(labelValues).fn = fn
}

// --- Gauges ---

// Gauge is a value that can go up and down (queue depth, in-flight
// requests, open connections).
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.s.val.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.s.val.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.s.val.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.s.val.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.s.val.Load() }

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookupOrCreate(name, help, KindGauge, nil, nil)
	return &Gauge{s: f.child(nil)}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// for exposing live state (map sizes, queue depths) without maintaining a
// shadow counter.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookupOrCreate(name, help, KindGauge, nil, nil)
	f.child(nil).fn = fn
}

// GaugeVec is a family of gauges sharing a name and label names (e.g. a
// replication lag gauge labeled by follower).
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns the existing) labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.lookupOrCreate(name, help, KindGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values, creating it on
// first use. Resolve children once at setup; the child itself is hot-path
// safe and allocation-free.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.child(labelValues)}
}

// --- Histograms ---

// DefBuckets are the default latency buckets in seconds, tuned for an
// in-memory linking pipeline whose operations span microseconds (a cache
// hit) to seconds (relinking a large batch).
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket distribution with cumulative exposition and
// quantile estimation. Observe is lock-free and allocation-free.
type Histogram struct {
	upper  []float64       // sorted upper bounds, not including +Inf
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	// Drop a trailing +Inf: it is implicit.
	for len(upper) > 0 && math.IsInf(upper[len(upper)-1], +1) {
		upper = upper[:len(upper)-1]
	}
	return &Histogram{
		upper:  upper,
		counts: make([]atomic.Uint64, len(upper)+1),
	}
}

// Histogram registers (or returns the existing) unlabeled histogram with
// the given bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets ...float64) *Histogram {
	f := r.lookupOrCreate(name, help, KindHistogram, nil, buckets)
	return f.child(nil).hist
}

// HistogramVec is a family of histograms sharing a name, buckets, and label
// names.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns the existing) labeled histogram
// family. buckets nil selects DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.lookupOrCreate(name, help, KindHistogram, labelNames, buckets)}
}

// With returns the child histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).hist
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose upper bound admits v.
	lo, hi := 0, len(h.upper)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v > h.upper[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket that contains it, the same estimate Prometheus's
// histogram_quantile computes server-side. It returns NaN with no
// observations. An estimate that lands in the +Inf bucket is clamped to the
// largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.upper) { // +Inf bucket: clamp
				if len(h.upper) == 0 {
					return math.NaN()
				}
				return h.upper[len(h.upper)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.upper[i-1]
			}
			upper := h.upper[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	if len(h.upper) == 0 {
		return math.NaN()
	}
	return h.upper[len(h.upper)-1]
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// value returns a series' scalar value for exposition (counters, gauges).
func (s *series) value() float64 {
	if s.fn != nil {
		return s.fn()
	}
	return float64(s.val.Load())
}
