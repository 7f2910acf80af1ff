//go:build race

package search

// raceEnabled reports that this test binary was built with the race
// detector; allocation-count guards skip, since under it sync.Pool drops
// pooled arenas at random and a fresh arena allocates its slabs anew.
const raceEnabled = true
