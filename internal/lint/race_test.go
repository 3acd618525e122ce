//go:build race

package lint

// raceEnabled reports that the tests run under the race detector, whose
// slowdown turns a wall-clock budget into a load test.
const raceEnabled = true
