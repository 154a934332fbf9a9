//go:build race

package main

// raceEnabled tells TestSmoke that the race detector slows it ~15×.
const raceEnabled = true
