//go:build !race

package models

const raceDetector = false
