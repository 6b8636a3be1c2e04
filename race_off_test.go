//go:build !race

package nnexus_test

// raceEnabled reports whether the race detector instruments this build.
// Allocation counts are inflated by the race runtime, so the allocs tests
// skip themselves when it is on.
const raceEnabled = false
