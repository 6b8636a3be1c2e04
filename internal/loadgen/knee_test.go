package loadgen

import (
	"strings"
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

// TestGateKnee is the regression-gate contract: the gate passes within
// tolerance, fails loudly beyond it, and refuses a broken baseline.
func TestGateKnee(t *testing.T) {
	if err := GateKnee(1000, 990, 0.25); err != nil {
		t.Fatalf("small wobble must pass: %v", err)
	}
	if err := GateKnee(1000, 760, 0.25); err != nil {
		t.Fatalf("drop inside tolerance must pass: %v", err)
	}
	err := GateKnee(1000, 700, 0.25)
	if err == nil {
		t.Fatal("30% knee drop with 25% tolerance must fail")
	}
	if !strings.Contains(err.Error(), "knee regression") {
		t.Fatalf("gate failure should be loud and named: %v", err)
	}

	// A synthetically degraded (inflated) baseline — as if the committed
	// file claimed far more capacity than the code has — must trip the
	// gate even when the measurement itself is healthy.
	if err := GateKnee(10_000, 990, 0.5); err == nil {
		t.Fatal("degraded baseline (10x measured) must fail the gate")
	}

	if err := GateKnee(0, 500, 0.25); err == nil {
		t.Fatal("non-positive baseline must fail")
	}
	if err := GateKnee(1000, 900, 1.5); err == nil {
		t.Fatal("nonsense tolerance must fail")
	}
}
