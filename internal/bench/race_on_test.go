//go:build race

package bench

// raceDetectorEnabled fences allocation-count ratios under -race, where
// sync.Pool drops about one Put in four on purpose, so pooled decode
// state is re-allocated at random and counts measure the detector.
const raceDetectorEnabled = true
