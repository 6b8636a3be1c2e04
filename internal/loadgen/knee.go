package loadgen

import "time"

// CurvePoint is one step of an offered-load sweep: what was offered, what
// was achieved, and the intended-latency percentiles.
type CurvePoint struct {
	Offered        float64
	Achieved       float64
	P50, P99, P999 time.Duration
}

// Point converts a run result into its curve point.
func (r *Result) Point() CurvePoint {
	return CurvePoint{
		Offered:  r.Offered,
		Achieved: r.AchievedRate(),
		P50:      r.Intended.Quantile(0.50),
		P99:      r.Intended.Quantile(0.99),
		P999:     r.Intended.Quantile(0.999),
	}
}

// SLO is the pass condition for one curve point: intended p99 at or under
// P99, and achieved at least MinAchievedRatio of offered (0 selects
// DefaultMinAchievedRatio).
type SLO struct {
	P99              time.Duration
	MinAchievedRatio float64
}

// DefaultMinAchievedRatio is the fraction of offered load that must
// complete for a sweep step to count as sustained: below it the system is
// shedding or queueing without bound, whatever its percentiles claim.
const DefaultMinAchievedRatio = 0.97

// Pass reports whether p satisfies the SLO.
func (s SLO) Pass(p CurvePoint) bool {
	min := s.MinAchievedRatio
	if min == 0 {
		min = DefaultMinAchievedRatio
	}
	return p.P99 <= s.P99 && p.Achieved >= min*p.Offered
}

// DetectKnee returns the last point of the longest passing prefix of the
// sweep — the highest offered rate the system sustained with every lower
// rate also sustained. The prefix rule makes the knee robust to a noisy
// pass above a genuine failure: capacity is what you can hold, not what
// you once grazed. ok is false when even the first point fails.
func DetectKnee(points []CurvePoint, slo SLO) (knee CurvePoint, ok bool) {
	for _, p := range points {
		if !slo.Pass(p) {
			break
		}
		knee, ok = p, true
	}
	return knee, ok
}
