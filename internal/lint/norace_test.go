//go:build !race

package lint

const raceEnabled = false
