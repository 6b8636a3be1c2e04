package main

import (
	"math"
	"sort"
)

// minBeyond is the rule the tail metrics follow: a percentile is only
// reported from a sample that leaves at least this many observations beyond
// it, so one outlier cannot be the whole estimate.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 100) of xs by the
// nearest-rank rule, and how many samples lie beyond that rank. xs is sorted
// in place. An empty sample yields 0.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], len(xs) - rank
}

// median returns the middle value (mean of the two middle values for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(xs, n=4) (exclusive), which is what the driver uses
// for the spread of a metric across runs. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
