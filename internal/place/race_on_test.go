//go:build race

package place

// raceSlowdown scales the wall-clock bounds of performance tests under
// the race detector, which slows TestScale30k's placement about 12×
// (65.0 s alone, 76.5 s beside the route tests, against 4.7–5.8 s
// without it, on 2 vCPUs, Go 1.24.0).
const raceSlowdown = 10
