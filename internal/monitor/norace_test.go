//go:build !race

package monitor_test

const raceEnabled = false
