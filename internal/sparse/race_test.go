//go:build race

package sparse

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts through the pool mean nothing there.
const raceEnabled = true
