//go:build race

package glare

// raceDetector reports a -race build, whose instrumentation slows the
// grid several times over; wall-time budgets do not apply to it.
const raceDetector = true
