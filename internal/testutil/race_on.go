//go:build race

package testutil

// RaceDetector reports a -race build. Under it sync.Pool drops a share of
// what is put into it and memory copies run several times slower, so gates on
// allocation counts, and on timings calibrated at full speed, do not apply.
const RaceDetector = true
