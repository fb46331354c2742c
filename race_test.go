//go:build race

package dfpr

// raceEnabled reports a -race build, whose shadow memory skews heap figures.
const raceEnabled = true
