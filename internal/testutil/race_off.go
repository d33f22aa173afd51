//go:build !race

package testutil

const RaceDetector = false
