package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// len reports the number of memoized walks.
func (d *decisionMemo) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// clear empties the memo, so the next ScheduleBatch of any batch walks.
func (d *decisionMemo) clear() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.table.Store(nil)
	d.n = 0
}

// memoCompositions returns per-template count vectors of 1..maxN queries
// over k templates: all of them when there are at most 2000, else 600
// distinct seeded ones.
func memoCompositions(k, maxN int, seed int64) [][]int {
	var all [][]int
	counts := make([]int, k)
	var rec func(t, left int)
	rec = func(t, left int) {
		if len(all) > 2000 {
			return
		}
		if t == k {
			if left < maxN {
				all = append(all, append([]int(nil), counts...))
			}
			return
		}
		for c := 0; c <= left; c++ {
			counts[t] = c
			rec(t+1, left-c)
		}
		counts[t] = 0
	}
	rec(0, maxN)
	if len(all) <= 2000 {
		return all
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out [][]int
	for len(out) < 600 {
		c := make([]int, k)
		for n := 1 + rng.Intn(maxN); n > 0; n-- {
			c[rng.Intn(k)]++
		}
		if key := fmt.Sprint(c); !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}

// memoWorkload lays counts out as a workload whose queries interleave the
// templates in a seeded order, with tags that are not their positions, so
// retag is exercised on every served schedule.
func memoWorkload(templates []workload.Template, counts []int, rng *rand.Rand) *workload.Workload {
	var qs []workload.Query
	for t, c := range counts {
		for ; c > 0; c-- {
			qs = append(qs, workload.Query{TemplateID: t})
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for i := range qs {
		qs[i].Tag = 1000 + 7*i
	}
	return &workload.Workload{Templates: templates, Queries: qs}
}

// schedString renders a schedule's VM types, queue templates and tags.
func schedString(s *schedule.Schedule) string {
	var b strings.Builder
	for _, vm := range s.VMs {
		fmt.Fprintf(&b, "[%d:", vm.TypeID)
		for _, q := range vm.Queue {
			fmt.Fprintf(&b, " %d/%d", q.TemplateID, q.Tag)
		}
		b.WriteString("]")
	}
	return b.String()
}

// checkMemoMatchesWalk schedules every composition at every multiplier
// three times on m: walked with an empty memo (the reference), then once
// more each into one memo that fills as it goes, then served from the
// filled memo. All three must agree, and the last pass must store nothing.
// It returns how many compositions the multiplier reschedules.
func checkMemoMatchesWalk(t *testing.T, name string, m *Model, comps [][]int, seed int64) (repriced int) {
	t.Helper()
	mults := []float64{1, 0.5, 1.7}
	templates := m.Env().Templates
	type call struct {
		w    *workload.Workload
		mult float64
		ref  string
	}
	rng := rand.New(rand.NewSource(seed))
	ws := make([]*workload.Workload, len(comps))
	for i, c := range comps {
		ws[i] = memoWorkload(templates, c, rng)
	}
	var calls []call
	for _, mult := range mults {
		for _, w := range ws {
			calls = append(calls, call{w: w, mult: mult})
		}
	}
	serve := func(c call) string {
		s, _, err := m.scheduleBatchInto(c.w, nil, nil, c.mult)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return schedString(s)
	}
	for i := range calls {
		m.memo.clear()
		calls[i].ref = serve(calls[i])
	}
	m.memo.clear()
	for pass, label := range []string{"filling", "filled"} {
		for _, c := range calls {
			if got := serve(c); got != c.ref {
				t.Fatalf("%s: %s memo, %d queries at ×%g: served %s, walk gives %s", name, label, len(c.w.Queries), c.mult, got, c.ref)
			}
		}
		if pass == 0 && m.memo.len() == 0 {
			t.Fatalf("%s: no walk was memoized", name)
		}
	}
	if got, want := m.memo.len(), len(calls); got != want {
		t.Fatalf("%s: memo holds %d walks of %d distinct (composition, multiplier) keys", name, got, want)
	}
	for i := range comps {
		for j := 1; j < len(mults); j++ {
			if calls[j*len(comps)+i].ref != calls[i].ref {
				repriced++
				break
			}
		}
	}
	t.Logf("%s: %d compositions × %d multipliers served from the memo as walked; %d rescheduled by the multiplier", name, len(comps), len(mults), repriced)
	return repriced
}

// A memo hit must serve exactly the schedule the tree walk gives — VM
// types, queue templates and real tags — for every goal family, every
// composition of 1..m queries over five templates, and three price
// multipliers; and so must a model restored from its checkpoint, a model
// whose schedules the multiplier moves, and an augmented model of the
// online path.
func TestMemoHitEqualsWalk(t *testing.T) {
	adv := smallAdvisor(t, 5, 2)
	env := adv.Env()
	goals := testGoals(env)
	m := adv.cfg.SampleSize
	comps := memoCompositions(len(env.Templates), m, 1)
	for _, name := range []string{"max", "perquery", "average", "percentile"} {
		model, err := adv.Train(goals[name])
		if err != nil {
			t.Fatal(err)
		}
		checkMemoMatchesWalk(t, name, model, comps, 2)
		data, err := EncodeModel(model)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := DecodeModel(data)
		if err != nil {
			t.Fatal(err)
		}
		if restored.memo.len() != 0 {
			t.Fatalf("%s: a decoded model starts with %d memoized walks", name, restored.memo.len())
		}
		checkMemoMatchesWalk(t, name+"/decoded", restored, comps, 3)
	}

	// At the default penalty rate no composition's schedule depends on the
	// multiplier: the guard never weighs fees against a penalty close
	// enough to flip. A hundredth of it makes them comparable, so a memo
	// that dropped the multiplier from its key would serve a wrong
	// schedule here.
	cheap, err := adv.Train(sla.NewAverage(6*time.Minute, env.Templates, sla.DefaultPenaltyRate/100))
	if err != nil {
		t.Fatal(err)
	}
	if checkMemoMatchesWalk(t, "average, cheap penalty", cheap, comps, 6) == 0 {
		t.Fatal("no composition is rescheduled by the price multiplier")
	}

	// An augmented model, built the way a stream without Shift builds one
	// for a backlog that has waited.
	base, err := adv.Train(goals["max"])
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOnlineOptions()
	opts.Shift = false
	opts.Retrain.NumSamples = 40
	opts.Retrain.SampleSize = 6
	eng := NewOnlineScheduler(base, opts)
	clk := &SimClock{}
	st := eng.NewStream(clk)
	for i := 0; i < 6; i++ {
		clk.Advance(time.Duration(i) * 20 * time.Second)
		if err := st.Submit(context.Background(), workload.Query{TemplateID: i % 5, Tag: i}); err != nil {
			t.Fatal(err)
		}
	}
	st.Finish()
	st.Close()
	var aug *Model
	epoch := eng.Registry().Current()
	for i := range epoch.derived.shards {
		for k, e := range epoch.derived.shards[i].m {
			if k.aug != "" && (aug == nil || len(e.m.Env().Templates) > len(aug.Env().Templates)) {
				aug = e.m
			}
		}
	}
	if aug == nil {
		t.Fatal("the backlog built no augmented model")
	}
	k := len(aug.Env().Templates)
	checkMemoMatchesWalk(t, fmt.Sprintf("augmented (%d templates)", k), aug, memoCompositions(k, aug.TrainingConfig.SampleSize, 4), 5)
}

// Streams share their epoch's models, so the memo is filled and read by
// many goroutines at once: eight of them scheduling overlapping
// compositions, memoized and not, in different orders, must each get what
// a serial walk gives.
func TestMemoConcurrentMatchesSerial(t *testing.T) {
	adv := smallAdvisor(t, 5, 2)
	model, err := adv.Train(testGoals(adv.Env())["average"])
	if err != nil {
		t.Fatal(err)
	}
	templates := model.Env().Templates
	rng := rand.New(rand.NewSource(6))
	var ws []*workload.Workload
	for _, c := range memoCompositions(len(templates), adv.cfg.SampleSize, 7)[:300] {
		ws = append(ws, memoWorkload(templates, c, rng))
	}
	for n := adv.cfg.SampleSize + 1; n <= adv.cfg.SampleSize+8; n++ {
		ws = append(ws, workload.NewSampler(templates, int64(n)).Uniform(n)) // walked, never memoized
	}
	refs := make([]string, len(ws))
	for i, w := range ws {
		model.memo.clear()
		s, err := model.ScheduleBatch(w)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = schedString(s)
	}
	model.memo.clear()

	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range ws {
					i := (j*(2*g+1) + 37*g) % len(ws)
					s, err := model.ScheduleBatch(ws[i])
					if err != nil {
						errs <- err
						return
					}
					if got := schedString(s); got != refs[i] {
						errs <- fmt.Errorf("worker %d, batch %d: served %s, serial walk gives %s", g, i, got, refs[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := model.memo.len(); got != 300 {
		t.Errorf("memo holds %d walks after 300 distinct memoizable batches", got)
	}
}
