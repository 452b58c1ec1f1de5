//go:build !race

package xmlutil

const raceDetector = false
