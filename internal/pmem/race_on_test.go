//go:build race

package pmem

// raceEnabled tells single-threaded tests that every per-word atomic of
// Flush and Crash costs ~50× under the race detector.
const raceEnabled = true
