//go:build !race

package dt

// raceEnabled: see race_on_test.go.
const raceEnabled = false
