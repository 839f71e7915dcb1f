//go:build !race

package audit

// raceEnabled reports a -race build, under which sync.Pool drops
// recycled objects at random and allocation counts mean nothing.
const raceEnabled = false
