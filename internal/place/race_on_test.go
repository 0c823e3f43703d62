//go:build race

package place

// raceSlowdown scales the wall-clock bounds of performance tests under
// the race detector, which slowed TestScale30k's placement about 10×
// (72.7 s against about 7 s on 2 vCPUs, Go 1.24.0).
const raceSlowdown = 10
