package loadgen

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is an HDR-style latency histogram: exponential buckets with 64
// linear sub-buckets each, giving a fixed ≤1/64 (~1.6%) relative value
// error from nanoseconds up to about an hour in a few KB of counters. All
// methods are safe for concurrent use; Record is a single atomic add, so
// many workers share one Hist without coordination.
//
// Unlike a percentile read off a sorted slice of samples, recording is
// O(1) with bounded memory at any request volume, and two histograms of
// the same shape can be merged — what an open-loop sweep needs when
// millions of intended arrivals are in play, and what lets an experiment
// pool its rounds.
type Hist struct {
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64 // nanoseconds; for Mean
	max    atomic.Int64 // highest recorded (clamped) value in ns
}

const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // 64 linear sub-buckets per bucket
	histSubHalf  = histSubCount / 2
	// histMaxValue is the highest trackable value (~73 minutes);
	// recordings beyond it clamp, which only flattens latencies no SLO
	// could survive anyway.
	histMaxValue = int64(1) << 42
)

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make([]atomic.Uint64, histIndex(histMaxValue)+1)}
}

// histIndex maps a non-negative nanosecond value to its counter slot
// (HdrHistogram's bucket/sub-bucket scheme).
func histIndex(v int64) int {
	m := bits.Len64(uint64(v) | (histSubCount - 1)) // ≥ histSubBits
	bucket := m - histSubBits
	sub := v >> uint(bucket)
	return (bucket+1)*histSubHalf + int(sub) - histSubHalf
}

// histValueAt returns the highest value equivalent to slot idx, so
// quantiles err on the conservative (pessimistic) side.
func histValueAt(idx int) int64 {
	bucket := idx/histSubHalf - 1
	sub := idx%histSubHalf + histSubHalf
	if bucket < 0 {
		bucket, sub = 0, idx
	}
	return (int64(sub)+1)<<uint(bucket) - 1
}

// Record adds one latency observation.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if v > histMaxValue {
		v = histMaxValue
	}
	h.counts[histIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns how many observations have been recorded.
func (h *Hist) Count() uint64 { return h.total.Load() }

// Max returns the largest recorded observation (clamped to the trackable
// range).
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the arithmetic mean of all observations.
func (h *Hist) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Quantile returns the value at quantile q in [0,1] — Quantile(0.99) is
// the p99 — with the histogram's ~1.6% relative value error. Concurrent
// recordings during the scan land in either the before or after picture;
// use it after a run, or accept the approximation during one.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= target {
			return time.Duration(histValueAt(i))
		}
	}
	return time.Duration(histValueAt(len(h.counts) - 1))
}

// Merge folds other's observations into h. Max and Mean stay exact;
// quantiles stay within the shared bucket error.
func (h *Hist) Merge(other *Hist) {
	for i := range other.counts {
		if n := other.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	for {
		cur, ov := h.max.Load(), other.max.Load()
		if ov <= cur || h.max.CompareAndSwap(cur, ov) {
			break
		}
	}
}
