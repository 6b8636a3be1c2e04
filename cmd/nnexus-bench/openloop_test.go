package main

import (
	"strings"
	"testing"
	"time"

	"nnexus/internal/loadgen"
)

// The loadgate contract: a sweep whose first rung misses the SLO has no
// knee and must be an error, so the experiment exits non-zero; a sweep
// whose first rung holds passes even when a later rung collapses.

var (
	gateSLO   = loadgen.SLO{P99: 25 * time.Millisecond}
	collapsed = loadgen.CurvePoint{Offered: 1200, Achieved: 1200, P99: 300 * time.Millisecond}
)

func TestLoadgateFailsOnDegradedPerformance(t *testing.T) {
	err := reportKnee([]loadgen.CurvePoint{collapsed}, gateSLO)
	if err == nil {
		t.Fatal("a sweep whose first rung missed the SLO passed")
	}
	if !strings.Contains(err.Error(), "no knee") {
		t.Fatalf("gate failure does not say the knee is missing: %v", err)
	}
	shed := loadgen.CurvePoint{Offered: 600, Achieved: 500, P99: 5 * time.Millisecond}
	if err := reportKnee([]loadgen.CurvePoint{shed, collapsed}, gateSLO); err == nil {
		t.Fatal("a first rung that completed 83% of its offered load passed")
	}
}

func TestLoadgatePassesWithinTolerance(t *testing.T) {
	held := loadgen.CurvePoint{Offered: 600, Achieved: 600, P99: 10 * time.Millisecond}
	if err := reportKnee([]loadgen.CurvePoint{held, collapsed}, gateSLO); err != nil {
		t.Fatalf("a sweep whose first rung held failed: %v", err)
	}
	// Right at the boundary: p99 exactly at the SLO is still a pass.
	edge := loadgen.CurvePoint{Offered: 600, Achieved: 600, P99: gateSLO.P99}
	if err := reportKnee([]loadgen.CurvePoint{edge, collapsed}, gateSLO); err != nil {
		t.Fatalf("a first rung with p99 exactly at the SLO failed: %v", err)
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates(" 250, 500,1000 ")
	if err != nil || len(got) != 3 || got[0] != 250 || got[2] != 1000 {
		t.Fatalf("parseRates = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-5", "abc", "100,,x"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
	if _, err := parseRates("100,,200"); err != nil {
		t.Errorf("empty elements between commas should be skipped: %v", err)
	}
}
