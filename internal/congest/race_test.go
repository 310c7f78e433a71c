//go:build race

package congest

// raceEnabled reports a -race build, where allocation counts say nothing
// about the code under test.
const raceEnabled = true
