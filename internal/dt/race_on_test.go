//go:build race

package dt

// raceEnabled reports that this test binary was built with the race
// detector; allocation-count guards skip, since race instrumentation
// allocates on paths that are allocation-free in production builds.
const raceEnabled = true
