//go:build race

package bulk

// raceEnabled: the race detector makes sync.Pool drop puts at random (core
// pools its per-worker scratch), so exact allocation counts do not hold
// under it.
const raceEnabled = true
