//go:build race

package mg

// raceEnabled: the race detector's sync.Pool drops a share of Puts on
// purpose, so allocation counts are meaningless under -race.
const raceEnabled = true
