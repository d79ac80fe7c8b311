//go:build !race

package relquery_test

// raceEnabled reports a -race build, for tests whose reference
// configurations are too slow under the race detector.
const raceEnabled = false
