package loadgen

import (
	"testing"
	"time"
)

func pt(offered, achieved float64, p99 time.Duration) CurvePoint {
	return CurvePoint{Offered: offered, Achieved: achieved, P99: p99}
}

func TestDetectKnee(t *testing.T) {
	slo := SLO{P99: 50 * time.Millisecond}
	points := []CurvePoint{
		pt(100, 100, 5*time.Millisecond),
		pt(200, 199, 8*time.Millisecond),
		pt(400, 398, 20*time.Millisecond),
		pt(800, 700, 300*time.Millisecond),  // collapses: latency and completion both fail
		pt(1600, 1590, 10*time.Millisecond), // noisy pass above a real failure must not count
	}
	knee, ok := DetectKnee(points, slo)
	if !ok {
		t.Fatal("expected a knee")
	}
	if knee.Offered != 400 {
		t.Fatalf("knee at %.0f, want 400 (prefix rule)", knee.Offered)
	}
}

func TestDetectKneeAchievedRatioAlone(t *testing.T) {
	// Latency fine, but the system quietly sheds 10% — not sustained.
	slo := SLO{P99: 50 * time.Millisecond}
	points := []CurvePoint{
		pt(100, 100, 5*time.Millisecond),
		pt(200, 180, 5*time.Millisecond),
	}
	knee, ok := DetectKnee(points, slo)
	if !ok || knee.Offered != 100 {
		t.Fatalf("knee = %+v ok=%v, want offered 100", knee, ok)
	}
}

func TestDetectKneeNone(t *testing.T) {
	slo := SLO{P99: time.Millisecond}
	if _, ok := DetectKnee([]CurvePoint{pt(100, 100, time.Second)}, slo); ok {
		t.Fatal("expected no knee when the first step already fails")
	}
	if _, ok := DetectKnee(nil, slo); ok {
		t.Fatal("expected no knee for an empty sweep")
	}
}
