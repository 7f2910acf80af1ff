package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"wisedb/internal/workload"
)

// Every figure must produce a non-empty, well-formed table in quick mode.
// This is the integration test for the whole pipeline: training, batch and
// online scheduling, adaptive modeling, heuristics, and the exact optimum.
func TestAllFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickConfig(nil)
	figs := []struct {
		name string
		rows int
		run  func() (*Table, error)
	}{
		{"fig9", 4, cfg.Fig9},
		{"fig10", 4, cfg.Fig10},
		{"fig11", 4, cfg.Fig11},
		{"fig12", 4, cfg.Fig12},
		{"fig13", 4, cfg.Fig13},
		{"fig14", 4, cfg.Fig14},
		{"fig15", 4, cfg.Fig15},
		{"fig16", 4, cfg.Fig16},
		{"fig17", 4, cfg.Fig17},
		{"fig18", 4, cfg.Fig18},
		{"fig19", 4, cfg.Fig19},
		{"fig20", 4, cfg.Fig20},
		{"fig21", len(skewLevels), cfg.Fig21},
		{"fig22", 4, cfg.Fig22},
		{"serve", 3, cfg.ServeThroughput},
		{"recovery", 3, cfg.ServeRecovery},
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) {
			table, err := f.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(table.Rows) != f.rows {
				t.Fatalf("want %d rows, got %d", f.rows, len(table.Rows))
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Fatalf("row %v has %d cells, header has %d", row, len(row), len(table.Header))
				}
				for _, cell := range row {
					if cell == "" {
						t.Fatalf("empty cell in row %v", row)
					}
				}
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		Title:  "demo",
		Header: []string{"a", "column"},
		Rows:   [][]string{{"x", "1"}, {"longer", "2"}},
	}
	table.Note("footnote %d", 7)
	var b strings.Builder
	table.Fprint(&b)
	out := b.String()
	for _, want := range []string{"== demo ==", "a       column", "longer  2", "note: footnote 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// The quick-mode effectiveness figures must stay in a sane band: the model
// should be within a factor of 2 of the (possibly bounded) optimal on quick
// scales. This is a regression tripwire for the scheduling pipeline, not a
// claim about the paper's 8%.
func TestFig9Sanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickConfig(nil)
	table, err := cfg.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("bad percent cell %q", row[3])
		}
		if v > 100 {
			t.Fatalf("%s is %s above optimal; pipeline regression", row[0], row[3])
		}
	}
}

// The "Optimal" comparator must prove the Figs. 9-12 Average instance (30
// queries, one VM type, heuristic-seeded) well inside the default expansion
// cap: a capped trial reports the seed as "optimal" and hides the model's
// real gap.
func TestOptimalCostProvesAverageAtFigureScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := &Config{}
	s := c.newSetup(10, 1)
	w := workload.NewSampler(s.env.Templates, 1).Uniform(30)
	cost, proven, err := c.optimalCost(s.env, s.goal("Average"), w)
	if err != nil {
		t.Fatal(err)
	}
	if !proven {
		t.Fatalf("Average m=30 hit the %d-expansion cap (best bound %.4f)", DefaultExpansionCap, cost)
	}
	if math.Abs(cost-11.6158) > 1e-3 {
		t.Fatalf("proven optimum %.4f, want 11.6158", cost)
	}
}

// The quick chaos table is reproducible: two runs at one seed render the
// same table. Its drift scenarios swap epochs under streams that share a
// registry, so those streams must run one after another.
func TestChaosQuickReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var out [2]strings.Builder
	for i := range out {
		if _, err := QuickConfig(&out[i]).Chaos(); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].String() != out[1].String() {
		t.Fatalf("two quick chaos runs at one seed differ:\n%s\n%s", out[0].String(), out[1].String())
	}
}
