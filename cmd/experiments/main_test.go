package main

import (
	"io"
	"slices"
	"testing"

	"wisedb/internal/experiments"
)

// `all` runs the paper's figures by number and the experiments without a
// number by name, the same order on every run: two outputs then diff table
// by table.
func TestAllOrder(t *testing.T) {
	want := []string{
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"chaos", "recovery", "scaleout", "scenarios", "serve",
	}
	figs := experimentsFor(experiments.QuickConfig(io.Discard))
	for range 5 {
		if got := allOrder(figs); !slices.Equal(got, want) {
			t.Fatalf("all runs\n  %v\nwant\n  %v", got, want)
		}
	}
}
