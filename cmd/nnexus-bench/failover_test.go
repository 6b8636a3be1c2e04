package main

import (
	"testing"
	"time"

	"nnexus"
)

// TestAvailabilityGapIgnoresWritesIssuedBeforeKillReturned: a write the
// dying primary acknowledges while its teardown is still running does not
// end the gap; the first success issued after the kill returned does, and
// the gap is measured from the start of the kill.
func TestAvailabilityGapIgnoresWritesIssuedBeforeKillReturned(t *testing.T) {
	var g availabilityGap
	g.write(time.Now(), nil) // before any kill
	g.kill(func() {
		g.write(time.Now(), nil) // acknowledged by the node being killed
		time.Sleep(20 * time.Millisecond)
	})
	if gap := g.gap(); gap != -1 {
		t.Fatalf("gap %v after writes issued before the kill returned, want none (-1)", gap)
	}
	g.write(time.Now(), nnexus.ErrNoPrimary)
	if gap := g.gap(); gap != -1 {
		t.Fatalf("gap %v after a failed write, want none (-1)", gap)
	}
	g.write(time.Now(), nil)
	if gap := g.gap(); gap < 20*time.Millisecond {
		t.Fatalf("gap %v after the first write issued past the kill, want ≥ the 20ms kill", gap)
	}
}
