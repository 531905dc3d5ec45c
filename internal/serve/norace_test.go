//go:build !race

package serve

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
