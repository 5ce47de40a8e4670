//go:build !race

package bulk

const raceEnabled = false
