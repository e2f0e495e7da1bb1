//go:build race

package strategy

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of the values put back, so allocation pins that
// rely on recycled scratch only hold without it.
const raceEnabled = true
