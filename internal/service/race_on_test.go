//go:build race

package service

// raceEnabled reports a -race build, whose runtime allocates on its
// own and so inflates testing.AllocsPerRun counts.
const raceEnabled = true
