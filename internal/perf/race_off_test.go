//go:build !race

package perf

// raceDetector reports that the tests were built with -race.
const raceDetector = false
