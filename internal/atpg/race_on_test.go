//go:build race

package atpg

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts and allocation counts stop being meaningful.
const raceEnabled = true
