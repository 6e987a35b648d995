//go:build race

package monitor_test

// raceEnabled reports a -race build: sync.Pool then drops a share of
// its Puts on purpose, so pooled allocation counts are not stable.
const raceEnabled = true
