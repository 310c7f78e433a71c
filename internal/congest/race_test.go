//go:build race

package congest

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts say nothing about the code under test.
const raceEnabled = true
