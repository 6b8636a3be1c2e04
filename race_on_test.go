//go:build race

package nnexus_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
