//go:build !race

package bench

const raceDetectorEnabled = false
