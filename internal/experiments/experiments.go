// Package experiments regenerates every figure of the paper's evaluation
// (§7, Figs. 9-22). Each FigNN function reproduces one figure as a printable
// table; cmd/experiments exposes them as subcommands and bench_test.go wraps
// them in testing.B benchmarks.
//
// Scale: Full mode follows the paper's setup (§7.1) as closely as the
// simulator allows; Quick mode shrinks workload sizes and training so the
// whole suite runs in minutes. EXPERIMENTS.md records Full-mode results
// next to the paper's.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/graph"
	"wisedb/internal/heuristics"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Config controls experiment scale and reporting.
type Config struct {
	// Quick shrinks workloads and training for fast benchmark runs.
	Quick bool
	// Seed drives all samplers.
	Seed int64
	// Parallelism is the training worker count; 0 selects GOMAXPROCS.
	// Trained models are identical for every value, so timings (Figs.
	// 14-16) are the only figures it affects.
	Parallelism int
	// ExpansionCap bounds the exact searches behind the "Optimal"
	// comparators (Figs. 9-13); 0 selects DefaultExpansionCap. Trials
	// whose optimality proof the cap interrupts fall back to the best
	// known upper bound and are counted in the tables' "capped" column.
	ExpansionCap int
	// Out receives the rendered tables; nil discards them.
	Out io.Writer

	modelCache map[string]*core.Model
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig(out io.Writer) *Config {
	return &Config{Seed: 1, Out: out, modelCache: map[string]*core.Model{}}
}

// QuickConfig returns the reduced-scale configuration used by benchmarks.
func QuickConfig(out io.Writer) *Config {
	return &Config{Quick: true, Seed: 1, Out: out, modelCache: map[string]*core.Model{}}
}

// pick returns full in full mode and quick in quick mode.
func (c *Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// setup bundles the environment and goals of one experimental condition.
type setup struct {
	env   *schedule.Env
	goals []namedGoal
}

type namedGoal struct {
	name string
	goal sla.Goal
}

// newSetup builds the §7.1 environment: TPC-H-like templates, EC2-like VM
// types, and the four default performance goals (Max 15m, PerQuery 3x,
// Average 10m, Percentile 90%/10m).
func (c *Config) newSetup(numTemplates, numTypes int) *setup {
	templates := workload.DefaultTemplates(numTemplates)
	env := schedule.NewEnv(templates, cloud.DefaultVMTypes(numTypes))
	return &setup{env: env, goals: defaultGoals(templates)}
}

// goal returns the named goal from the setup.
func (s *setup) goal(name string) sla.Goal {
	for _, g := range s.goals {
		if g.name == name {
			return g.goal
		}
	}
	panic("experiments: unknown goal " + name)
}

func defaultGoals(templates []workload.Template) []namedGoal {
	return []namedGoal{
		{"PerQuery", sla.NewPerQuery(3, templates, sla.DefaultPenaltyRate)},
		{"Average", sla.NewAverage(10*time.Minute, templates, sla.DefaultPenaltyRate)},
		{"Max", sla.NewMaxLatency(15*time.Minute, templates, sla.DefaultPenaltyRate)},
		{"Percent", sla.NewPercentile(90, 10*time.Minute, templates, sla.DefaultPenaltyRate)},
	}
}

// trainConfig returns the training scale for the mode. Training runs on the
// parallel worker-pool path; Parallelism=0 uses every core.
func (c *Config) trainConfig() core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Seed = c.Seed
	cfg.Parallelism = c.Parallelism
	if c.Quick {
		cfg.NumSamples = 150
		cfg.SampleSize = 8
	} else {
		cfg.NumSamples = 800
		cfg.SampleSize = 12
	}
	return cfg
}

// model trains (or fetches from the per-run cache) a decision model for the
// goal in the given environment.
func (c *Config) model(env *schedule.Env, goal sla.Goal) (*core.Model, error) {
	key := fmt.Sprintf("%s|t%d|v%d|q%v", goal.Key(), len(env.Templates), len(env.VMTypes), c.Quick)
	if m, ok := c.modelCache[key]; ok {
		return m, nil
	}
	adv, err := core.NewAdvisor(env, c.trainConfig())
	if err != nil {
		return nil, err
	}
	m, err := adv.Train(goal)
	if err != nil {
		return nil, err
	}
	if c.modelCache == nil {
		c.modelCache = map[string]*core.Model{}
	}
	c.modelCache[key] = m
	return m, nil
}

// DefaultExpansionCap is the default bound on the exact search used as the
// "Optimal" comparator. On one VM type it proves nearly every 30-query
// instance; Average on two VM types from 20 queries up, and the occasional
// 30-query Percentile or two-type Max instance, still exceed it
// (EXPERIMENTS.md, "The third reduction, on and off"). The comparator then
// falls back to the best known upper bound and the trial counts as capped.
const DefaultExpansionCap = 600_000

// expansionCap returns the configured comparator search bound.
func (c *Config) expansionCap() int {
	if c.ExpansionCap > 0 {
		return c.ExpansionCap
	}
	return DefaultExpansionCap
}

// optimalCost returns the minimum schedule cost for the workload, seeding
// branch-and-bound with the best heuristic and model schedules. proven is
// false when the expansion cap interrupted the proof; the returned cost is
// then the best known upper bound.
func (c *Config) optimalCost(env *schedule.Env, goal sla.Goal, w *workload.Workload, extraSeeds ...float64) (cost float64, proven bool, err error) {
	seed := bestSeedCost(env, goal, w)
	for _, s := range extraSeeds {
		if s < seed {
			seed = s
		}
	}
	searcher, err := search.New(graph.NewProblem(env, goal))
	if err != nil {
		return 0, false, err
	}
	res, err := searcher.Solve(w, search.Options{MaxExpansions: c.expansionCap(), IncumbentCost: seed})
	switch {
	case err == search.ErrSeedIsOptimal:
		return seed, true, nil
	case err != nil:
		// Cap hit: the seed is the best known bound.
		return seed, false, nil
	default:
		return res.Cost, res.Optimal, nil
	}
}

// bestSeedCost returns the cheapest schedule any baseline heuristic finds.
func bestSeedCost(env *schedule.Env, goal sla.Goal, w *workload.Workload) float64 {
	best := heuristics.FFD(w, env, goal, 0).Cost(env, goal)
	if c := heuristics.FFI(w, env, goal, 0).Cost(env, goal); c < best {
		best = c
	}
	if c := heuristics.Pack9(w, env, goal, 0).Cost(env, goal); c < best {
		best = c
	}
	return best
}

// pct formats a percent-above-optimal value.
func pct(model, optimal float64) string {
	if optimal == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", (model/optimal-1)*100)
}

// cents formats a cent amount.
func cents(c float64) string { return fmt.Sprintf("%.2f¢", c) }
