//go:build race

package main

// raceDetector reports that the tests were built with -race.
const raceDetector = true
