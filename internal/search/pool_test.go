package search

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"wisedb/internal/graph"
	"wisedb/internal/workload"
)

// poolShape is one Searcher of TestSearchArenaPoolAcrossProblems and the
// sequence of solves it runs.
type poolShape struct {
	name      string
	s         *Searcher
	workloads []*workload.Workload
	// cached solves run with a transposition cache of their own, recording
	// and committing after each solve, so later solves stitch.
	cached bool
}

// poolOutcome is what a solve returns that the arena could disturb.
type poolOutcome struct {
	cost                   float64
	actions                []graph.Action
	expanded, hits, misses int
}

func (p *poolShape) run() ([]poolOutcome, error) {
	var opts Options
	var pend PendingSuffixes
	if p.cached {
		opts.Cache, opts.Record = NewTranspositionCache(), &pend
	}
	out := make([]poolOutcome, len(p.workloads))
	for i, w := range p.workloads {
		r, err := p.s.Solve(w, opts)
		if err != nil {
			return nil, fmt.Errorf("%s, workload %d: %w", p.name, i, err)
		}
		if p.cached {
			opts.Cache.Commit(&pend)
		}
		out[i] = poolOutcome{r.Cost, r.Actions, r.Expanded, r.CacheHits, r.CacheMisses}
	}
	return out, nil
}

// One arena pool serves every Searcher in the process, so an arena a
// search released may next serve another goal, template count or VM-type
// count. Whichever search used it before must not show: goroutines
// interleave the solves of Searchers of different shapes — Max with a cache
// and suffix records, PerQuery, Average, and Percentile with its dominance
// index; 3 and 5 templates; 1 and 2 VM types — and every result (cost,
// actions, expansions, cache hits and misses) must equal what the same
// Searcher returned run alone beforehand.
func TestSearchArenaPoolAcrossProblems(t *testing.T) {
	specs := []struct {
		goal       string
		k, nv      int
		cached     bool
		minN, maxN int
	}{
		{"max", 5, 2, true, 6, 16},
		{"max", 3, 1, true, 6, 16},
		{"perquery", 5, 1, false, 6, 12},
		{"average", 3, 2, false, 4, 9},
		{"percentile", 5, 2, false, 4, 8},
		{"percentile", 3, 1, false, 4, 8},
	}
	shapes := make([]*poolShape, len(specs))
	for i, sp := range specs {
		env := testEnv(sp.k, sp.nv)
		s, err := New(graph.NewProblem(env, goalSet(env)[sp.goal]))
		if err != nil {
			t.Fatal(err)
		}
		sampler := workload.NewSampler(env.Templates, int64(31+i))
		p := &poolShape{name: fmt.Sprintf("%s k=%d nv=%d", sp.goal, sp.k, sp.nv), s: s, cached: sp.cached}
		for n := sp.minN; n <= sp.maxN; n++ {
			p.workloads = append(p.workloads, sampler.Uniform(n))
		}
		shapes[i] = p
	}

	alone := make([][]poolOutcome, len(shapes))
	for i, p := range shapes {
		out, err := p.run()
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = out
	}

	const perShape, rounds = 2, 4
	var wg sync.WaitGroup
	for i, p := range shapes {
		for g := 0; g < perShape; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					out, err := p.run()
					if err != nil {
						t.Error(err)
						return
					}
					for j, got := range out {
						want := alone[i][j]
						if got.cost != want.cost || !slices.Equal(got.actions, want.actions) ||
							got.expanded != want.expanded || got.hits != want.hits || got.misses != want.misses {
							t.Errorf("%s, workload %d, round %d: interleaved solve gives %+v, alone %+v", p.name, j, r, got, want)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}
