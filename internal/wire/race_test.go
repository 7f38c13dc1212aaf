//go:build race

package wire

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops pooled items at random, so the pooled encode buffers are
// reallocated and allocation-count pins are skipped.
const raceEnabled = true
