//go:build race

package server

// raceEnabled: the race detector makes sync.Pool drop puts at random, so exact
// allocation ceilings do not hold under it.
const raceEnabled = true
