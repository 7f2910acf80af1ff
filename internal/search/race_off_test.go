//go:build !race

package search

// raceEnabled: see race_on_test.go.
const raceEnabled = false
