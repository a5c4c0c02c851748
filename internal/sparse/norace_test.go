//go:build !race

package sparse

const raceEnabled = false
