//go:build !race

package strategy

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
