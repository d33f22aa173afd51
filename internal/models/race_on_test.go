//go:build race

package models

// raceDetector reports a -race build, under which sync.Pool drops a share
// of what is put into it and allocation counts stop being exact.
const raceDetector = true
