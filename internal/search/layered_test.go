package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"wisedb/internal/graph"
	"wisedb/internal/workload"
)

// randomRecords draws n suffix records over keys signatures: small integer
// costs (values of the cost grid, so exact ties are common) and short
// random suffixes, so later records both repeat and beat earlier ones.
func randomRecords(rng *rand.Rand, n, keys int) []suffixRecord {
	recs := make([]suffixRecord, n)
	for i := range recs {
		actions := make([]graph.Action, 1+rng.Intn(3))
		for j := range actions {
			if rng.Intn(2) == 0 {
				actions[j] = graph.Action{Kind: graph.Place, Template: rng.Intn(3)}
			} else {
				actions[j] = graph.Action{Kind: graph.Startup, VMType: rng.Intn(2)}
			}
		}
		recs[i] = suffixRecord{
			sig:     []byte(fmt.Sprintf("sig-%03d", rng.Intn(keys))),
			cost:    float64(1 + rng.Intn(4)),
			actions: actions,
		}
	}
	return recs
}

// commitRecords commits recs to c through a PendingSuffixes.
func commitRecords(c *TranspositionCache, recs []suffixRecord) {
	var p PendingSuffixes
	for _, r := range recs {
		p.add(r.sig, r.cost, r.actions)
	}
	c.Commit(&p)
}

// requireSameCache fails unless got holds exactly want's entries: the same
// cost and suffix for every probed signature, the same Len, and the same
// Export with and without truncation.
func requireSameCache(t *testing.T, step string, got, want *TranspositionCache, keys int) {
	t.Helper()
	for k := -1; k <= keys; k++ {
		sig := []byte(fmt.Sprintf("sig-%03d", k))
		g, gok := got.lookupHash(sig, hashSig(sig))
		w, wok := want.lookupHash(sig, hashSig(sig))
		if gok != wok || g.cost != w.cost || !slices.Equal(g.actions, w.actions) {
			t.Fatalf("%s: %s holds (%v, %v, %v), the flat cache (%v, %v, %v)", step, sig, gok, g.cost, g.actions, wok, w.cost, w.actions)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, the flat cache's %d", step, got.Len(), want.Len())
	}
	for _, max := range []int{0, 1, 7, want.Len() - 1, want.Len(), want.Len() + 5} {
		if g, w := got.Export(max), want.Export(max); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Export(%d) differs from the flat cache's", step, max)
		}
	}
}

// A chain of derived caches holds exactly what one flat cache fed the same
// records holds: lookups, Len and Export agree after every epoch — with
// base entries shadowed by better layer records, with a layer flattened
// once it reaches half its base — and no cache that was derived from
// changes afterwards.
func TestLayeredCacheMatchesFlat(t *testing.T) {
	const keys = 300
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat := NewTranspositionCache()
		cur := NewTranspositionCache()
		first := randomRecords(rng, 400, keys/2)
		commitRecords(flat, first)
		commitRecords(cur, first)
		var frozen []*TranspositionCache
		var exports [][]CacheEntry
		shadowed, flattened := false, false
		for epoch := 1; epoch <= 20; epoch++ {
			frozen = append(frozen, cur)
			exports = append(exports, cur.Export(0))
			cur = cur.Derive()
			recs := randomRecords(rng, 16, keys)
			commitRecords(flat, recs)
			commitRecords(cur, recs)
			shadowed = shadowed || cur.shadowed > 0
			flattened = flattened || (epoch > 1 && cur.base == nil)
			if cur.base != nil && 2*cur.top.table.Len() >= cur.base.table.Len() {
				t.Fatalf("seed %d epoch %d: a layer of %d over a base of %d was not flattened", seed, epoch, cur.top.table.Len(), cur.base.table.Len())
			}
			requireSameCache(t, fmt.Sprintf("seed %d epoch %d", seed, epoch), cur, flat, keys)
		}
		if !shadowed || !flattened {
			t.Fatalf("seed %d: the chain never shadowed (%v) or never flattened (%v) a base entry", seed, shadowed, flattened)
		}
		for i, c := range frozen {
			if !reflect.DeepEqual(c.Export(0), exports[i]) {
				t.Fatalf("seed %d: the cache of epoch %d changed after a later epoch derived from it", seed, i)
			}
		}
	}
}

// A frozen cache is read — exported, encoded through Sorted, derived from
// and looked up — while caches derived from it commit, shadow its entries
// and flatten. Only the derived layers are written, so under -race this
// pins that nothing writes the shared base.
func TestFrozenBaseReadWhileDerivedCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := NewTranspositionCache()
	commitRecords(base, randomRecords(rng, 400, 150))
	want := base.Export(0)
	streams := make([][]suffixRecord, 2)
	for i := range streams {
		streams[i] = randomRecords(rng, 200, 300)
	}
	var wg sync.WaitGroup
	for _, recs := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := base.Derive()
			for i := 0; i < len(recs); i += 10 {
				commitRecords(d, recs[i:i+10])
				d = d.Derive()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := base.Export(0); !reflect.DeepEqual(got, want) {
					t.Error("the frozen base changed under a derived cache's commits")
					return
				}
				v := base.Sorted(100) // truncated, as a checkpoint's is
				for j := range v.Len() {
					sig, cost, _ := v.At(j)
					if e, ok := base.lookupHash(sig, hashSig(sig)); !ok || e.cost != cost {
						t.Error("Sorted and lookup disagree on the frozen base")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Path-ful searchers hand out actions the caller owns: mutating a Solve's
// or Replay's Actions must not reach the suffix records. A path-free
// searcher shares them instead — Replay returns the stored slice itself.
func TestPathfulResultsOwnTheirActions(t *testing.T) {
	env := testEnv(4, 2)
	prob := graph.NewProblem(env, goalSet(env)["max"])
	s, err := New(prob)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewSampler(env.Templates, 5).Uniform(6)
	clean := NewTranspositionCache()
	var rec PendingSuffixes
	res, err := s.Solve(w, Options{Record: &rec})
	if err != nil {
		t.Fatal(err)
	}
	clean.Commit(&rec)
	want := clean.Export(0)
	stored := slices.Clone(res.Actions)

	scribble := func(actions []graph.Action) {
		for i := range actions {
			actions[i] = graph.Action{Kind: graph.Place, Template: 3}
		}
	}
	solved, err := s.Solve(w, Options{Record: &rec})
	if err != nil {
		t.Fatal(err)
	}
	scribble(solved.Actions)
	c := NewTranspositionCache()
	c.Commit(&rec)
	if !reflect.DeepEqual(c.Export(0), want) {
		t.Fatal("mutating a path-ful Solve's Actions reached its suffix records")
	}

	input := slices.Clone(stored)
	replayed, err := s.Replay(w, input, res.Cost, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if &replayed.Actions[0] == &input[0] {
		t.Fatal("a path-ful Replay returned the caller's slice as Actions")
	}
	scribble(replayed.Actions)
	scribble(input)
	c = NewTranspositionCache()
	c.Commit(&rec)
	if !reflect.DeepEqual(c.Export(0), want) {
		t.Fatal("mutating a path-ful Replay's Actions or its input reached its suffix records")
	}

	input = slices.Clone(stored)
	shared, err := s.WithoutPaths().Replay(w, input, res.Cost, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if &shared.Actions[0] != &input[0] {
		t.Fatal("a path-free Replay copied the stored actions")
	}
	c = NewTranspositionCache()
	c.Commit(&rec)
	if !reflect.DeepEqual(c.Export(0), want) {
		t.Fatal("a path-free Replay recorded other suffixes than a path-ful one")
	}
}
