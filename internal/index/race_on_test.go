//go:build race

package index

// raceEnabled lets capacity tests skip what the race detector makes
// take minutes.
const raceEnabled = true
