//go:build race

package xmlutil

// raceDetector reports a -race build, whose instrumentation makes copying
// a large document several times slower; wall-time budgets do not apply.
const raceDetector = true
