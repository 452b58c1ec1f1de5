//go:build !race

package glare

const raceDetector = false
