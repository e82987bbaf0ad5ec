//go:build !race

package metrics

// raceEnabled reports whether the race detector is on: it slows a locked
// Observe about thirty-fold, so the retained-size pin feeds fewer samples.
const raceEnabled = false
