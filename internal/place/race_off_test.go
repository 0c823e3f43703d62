//go:build !race

package place

// raceSlowdown scales the wall-clock bounds of performance tests; 1
// without the race detector.
const raceSlowdown = 1
