//go:build !race

package mg

const raceEnabled = false
