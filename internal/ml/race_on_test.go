//go:build race

package ml

// raceEnabled reports that this binary runs under the race detector, whose
// sync.Pool deliberately drops a fraction of Puts — so allocation-count pins
// over pooled paths are meaningless there.
const raceEnabled = true
