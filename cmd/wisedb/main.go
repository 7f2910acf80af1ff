// Command wisedb is a small CLI over the WiSeDB advisor: it trains decision
// models, schedules batch workloads, recommends service tiers, simulates
// online arrival streams, and manages durable model files — all against the
// synthetic TPC-H-like environment of the paper's evaluation (§7.1).
//
// Usage:
//
//	wisedb train [-o model.wsdb]      # train a model; optionally persist it
//	wisedb schedule [-model m.wsdb]   # train/load + schedule a random batch
//	wisedb recommend                  # derive k service tiers with cost estimates
//	wisedb online [-model m.wsdb]     # simulate an online arrival stream
//	wisedb serve [-store DIR] [-checkpoint]
//	                                  # drive K concurrent tenant streams
//	wisedb serve -listen :7070 [-http :7071]
//	                                  # run as a long-lived network daemon
//	wisedb load -addr HOST:7070 -conns 200
//	                                  # drive a daemon over the wire
//	wisedb inspect PATH               # dump a model file's (or store dir's)
//	                                  # header, mix histogram, and lineage
//
// Flags may come before or after the subcommand. Common flags select the
// goal (-goal max|perquery|average|percentile), the environment
// (-templates, -vmtypes), training scale (-samples, -size), and the
// workload (-queries, -seed). serve adds -streams, -skew / -shift-at
// (inject a template-mix shift mid-stream), and -drift-window (detect it
// via EMD and hot-swap an adapted model).
//
// serve scales out: the tenant streams are replayed over -parallelism
// workers (default one per core, the same pool that trains), and
// -registries N hosts N model registries (tenant tiers) with independent
// drift-retrain lifecycles — tenants bind to them round-robin. `wisedb
// serve -streams 10000 -queries 4` is the 10k-stream load-generator mode;
// the summary reports ω-map build counts and one lifecycle line per tier.
//
// serve can also run under chaos: -chaos-seed arms deterministic fault
// injection (-vm-failure-rate kills rented VMs mid-stream, -fail-retrains
// fails the first K drift retrains, -flaky-checkpoints makes checkpoint
// writes transiently fail), -degrade enables graceful fallback to
// first-fit heuristic scheduling when the epoch model is unusable, and
// -max-backlog sheds new arrivals admission-control style while degraded.
// The summary then adds the failure-path counters: each tier's retrain
// backoff, circuit-breaker state and checkpoint retries, and the engine's
// degraded/shed arrivals and queries re-admitted after VM failures.
//
// With -listen, serve becomes the overload-safe network daemon instead:
// a TCP listener speaking the internal/wire framing (one connection per
// tenant stream) with an HTTP sidecar (-http) for /healthz, /readyz, and
// /stats. -admit-rate/-admit-burst arm token-bucket admission control
// that sheds before the engine sees a query, -deadline bounds each
// placement, -max-conns caps connections, and SIGTERM drains gracefully:
// stop accepting, flush in-flight streams exactly once, checkpoint every
// registry, exit. With -chaos-seed, -drop-rate/-stall-rate inject
// dropped and stalled connections at the listener. `wisedb load` is the
// matching load generator: -conns pipelined client connections (window
// -window) driving virtual arrivals -delay apart, with jittered-backoff
// dial retries; it reports wire throughput and ack-latency percentiles.
//
// Model persistence: `wisedb train -o m.wsdb && wisedb serve -model m.wsdb`
// serves with zero training searches at startup. With -store DIR the
// server warm-starts from the newest checkpointed epoch in DIR (training
// only if the store is empty) and — with -checkpoint, the default —
// commits every drift-retrained epoch back to it, so a crash loses at most
// the epoch being written; -model with -store is rejected (the store
// defines what serves). `wisedb inspect` reads headers and lineage
// without ever decoding a decision tree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"wisedb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wisedb: ")

	goalName := flag.String("goal", "max", "performance goal: max, perquery, average, percentile")
	numTemplates := flag.Int("templates", 10, "number of query templates")
	numTypes := flag.Int("vmtypes", 1, "number of VM types")
	samples := flag.Int("samples", 500, "training sample workloads (N)")
	sampleSize := flag.Int("size", 12, "queries per training sample (m)")
	queries := flag.Int("queries", 100, "workload size for schedule/online")
	seed := flag.Int64("seed", 1, "random seed")
	tiers := flag.Int("k", 3, "service tiers for recommend")
	delay := flag.Duration("delay", 10*time.Second, "inter-arrival delay for online/serve")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for training and for serve's tenant streams (0 = all cores)")
	streams := flag.Int("streams", 16, "concurrent tenant streams for serve")
	registries := flag.Int("registries", 1, "serve: model registries (tenant tiers); streams bind round-robin")
	skew := flag.Float64("skew", 0, "serve: template-mix skew injected mid-stream (0 = no shift, up to 1)")
	shiftAt := flag.Float64("shift-at", 0.5, "serve: fraction of each stream after which the mix shifts")
	driftWindow := flag.Int("drift-window", 48, "serve: sliding-histogram size for EMD drift detection (0 = off)")
	outPath := flag.String("o", "", "train: persist the trained model at this path")
	modelPath := flag.String("model", "", "load a persisted model instead of training")
	storeDir := flag.String("store", "", "serve: durable model store directory (warm start + checkpoints)")
	checkpoint := flag.Bool("checkpoint", true, "serve: checkpoint hot-swapped epochs into -store")
	chaosSeed := flag.Int64("chaos-seed", 0, "serve: arm deterministic fault injection with this seed (0 = off)")
	vmFailureRate := flag.Float64("vm-failure-rate", 0.3, "serve: probability each rented VM fails mid-stream (with -chaos-seed)")
	failRetrains := flag.Int("fail-retrains", 0, "serve: fail the first K drift retrains per registry (with -chaos-seed)")
	flakyCheckpoints := flag.Int("flaky-checkpoints", 0, "serve: fail the first K checkpoint writes transiently (with -chaos-seed)")
	degrade := flag.Bool("degrade", false, "serve: fall back to heuristic scheduling when the epoch model is unusable")
	maxBacklog := flag.Int("max-backlog", 0, "serve: shed new arrivals above this backlog while degraded (0 = never shed)")
	listen := flag.String("listen", "", "serve: run as a network daemon on this TCP address instead of the in-process load generator")
	httpAddr := flag.String("http", "", "serve daemon: HTTP sidecar address for /healthz, /readyz, /stats")
	maxConns := flag.Int("max-conns", 1024, "serve daemon: concurrent connection cap")
	admitRate := flag.Float64("admit-rate", 0, "serve daemon: token-bucket admission rate in queries/sec (0 = no admission control)")
	admitBurst := flag.Int("admit-burst", 0, "serve daemon: admission token-bucket depth (0 = one second of -admit-rate)")
	deadline := flag.Duration("deadline", 0, "placement deadline: serve daemon default, load per-request (0 = none)")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "serve daemon: how long a drain waits for in-flight connections")
	dropRate := flag.Float64("drop-rate", 0, "serve daemon: probability a connection is dropped mid-stream (with -chaos-seed)")
	stallRate := flag.Float64("stall-rate", 0, "serve daemon: probability a connection stalls once (with -chaos-seed)")
	loadAddr := flag.String("addr", "127.0.0.1:7070", "load: daemon address to drive")
	conns := flag.Int("conns", 100, "load: concurrent client connections")
	window := flag.Int("window", 64, "load: pipelined submit frames in flight per connection")
	loadRegistry := flag.String("registry", "", "load: registry tier to bind streams to (empty = default)")
	flag.Parse()

	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	// Accept flags after the subcommand too: `wisedb train -o m.wsdb`.
	if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
		os.Exit(2)
	}

	if cmd == "inspect" {
		if flag.NArg() != 1 {
			log.Fatal("inspect requires a model file or store directory path")
		}
		inspect(flag.Arg(0))
		return
	}
	// Every other subcommand takes flags only: a stray positional arg is
	// almost always a mistake (`wisedb train model.wsdb` without -o would
	// otherwise train, save nothing, and exit 0).
	if flag.NArg() != 0 {
		log.Fatalf("unexpected argument %q after %s (did you mean a flag?)", flag.Arg(0), cmd)
	}

	// Reject incoherent flag combinations before any training or store
	// I/O happens.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateFlags(cmd, explicit, *modelPath, *storeDir, *registries, *streams, *listen); err != nil {
		log.Fatal(err)
	}

	if cmd == "load" {
		runLoad(loadConfig{
			addr: *loadAddr, conns: *conns, queries: *queries, window: *window,
			delay: *delay, deadline: *deadline, registry: *loadRegistry, seed: *seed,
		})
		return
	}

	templates := wisedb.DefaultTemplates(*numTemplates)
	env := wisedb.NewEnv(templates, wisedb.DefaultVMTypes(*numTypes))
	goal := makeGoal(*goalName, templates)

	cfg := wisedb.DefaultTrainConfig()
	cfg.NumSamples = *samples
	cfg.SampleSize = *sampleSize
	cfg.Seed = *seed
	cfg.Parallelism = *parallelism
	advisor, err := wisedb.NewAdvisor(env, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// getModel loads a persisted model (-model, zero training searches) or
	// trains one. A loaded model carries its own goal and environment.
	getModel := func() *wisedb.Model {
		if *modelPath == "" {
			return mustTrain(advisor, goal)
		}
		m, err := advisor.LoadModel(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s model from %s (zero training searches)\n", m.Goal.Name(), *modelPath)
		return m
	}

	switch cmd {
	case "train":
		model := getModel()
		fmt.Printf("trained in %s on %d decisions; tree height %d, %d leaves\n\n",
			model.TrainingTime.Round(time.Millisecond), model.TrainingRows,
			model.Tree.Height(), model.Tree.NumLeaves())
		fmt.Print(model.Dump())
		if *outPath != "" {
			if err := advisor.SaveModel(*outPath, model); err != nil {
				log.Fatal(err)
			}
			size := int64(0)
			if fi, err := os.Stat(*outPath); err == nil {
				size = fi.Size()
			}
			fmt.Printf("\nsaved %s (%d bytes, format v%d)\n", *outPath, size, wisedb.ModelFormatVersion)
		}

	case "schedule":
		model := getModel()
		w := wisedb.NewSampler(model.Env().Templates, *seed+100).Uniform(*queries)
		start := time.Now()
		sched, err := model.ScheduleBatch(w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scheduled %d queries onto %d VMs in %s\n",
			*queries, len(sched.VMs), time.Since(start).Round(time.Microsecond))
		fmt.Printf("provisioning %.2f¢ + penalty %.2f¢ = total %.2f¢\n",
			sched.ProvisioningCost(model.Env()), sched.Penalty(model.Env(), model.Goal), sched.Cost(model.Env(), model.Goal))

	case "recommend":
		rec := wisedb.DefaultRecommendConfig()
		rec.K = *tiers
		strategies, err := advisor.Recommend(goal, rec)
		if err != nil {
			log.Fatal(err)
		}
		counts := make([]int, *numTemplates)
		for i := range counts {
			counts[i] = *queries / *numTemplates
		}
		fmt.Printf("%d service tiers (estimated cost for %d-query uniform workload):\n", len(strategies), *queries)
		for i, s := range strategies {
			fmt.Printf("  tier %d: %-60s est. %.2f¢\n", i+1, s.Model.Goal.Key(), s.EstimateCost(counts))
		}

	case "online":
		model := getModel()
		w := wisedb.NewSampler(model.Env().Templates, *seed+100).Uniform(*queries)
		arrivals := make([]time.Duration, *queries)
		for i := range arrivals {
			arrivals[i] = time.Duration(i) * *delay
		}
		res, err := wisedb.NewOnlineScheduler(model, wisedb.DefaultOnlineOptions()).Run(w.WithArrivals(arrivals))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("online: %d queries, %d VMs, cost %.2f¢ (penalty %.2f¢)\n",
			len(res.Outcomes), res.VMsRented, res.Cost, res.Penalty)
		fmt.Printf("advisor overhead %s total (%d retrainings, %d adaptations: %d samples replayed, %d solved; %d cache hits)\n",
			res.SchedulingTime.Round(time.Millisecond), res.Retrainings, res.Adaptations, res.AdaptReplayed, res.AdaptSolved, res.CacheHits)

	case "serve":
		opts := wisedb.DefaultOnlineOptions()
		opts.Drift = wisedb.DriftOptions{Window: *driftWindow}
		opts.Degrade = *degrade
		opts.MaxBacklog = *maxBacklog
		engine, ms := buildServeEngine(opts, getModel, *storeDir, *checkpoint)
		base := engine.Registry().Current().Model
		// Tenant tiers: registry 0 is the engine's default; each extra one
		// shares the base model but retrains (and checkpoints) on its own.
		regNames := []string{""}
		for i := 1; i < *registries; i++ {
			name := fmt.Sprintf("tier-%d", i)
			if _, err := engine.AddRegistry(name, base); err != nil {
				log.Fatal(err)
			}
			regNames = append(regNames, name)
		}
		var spec wisedb.ChaosSpec
		if *chaosSeed != 0 {
			spec = wisedb.ChaosSpec{
				Seed: *chaosSeed,
				VM: wisedb.FaultSpec{
					VMFailureRate: *vmFailureRate,
					VMMinLifetime: time.Minute,
					// Failures must land inside the stream's span to matter.
					VMMaxLifetime: time.Duration(*queries) * *delay,
				},
				RetrainFailures:             *failRetrains,
				CheckpointTransientFailures: *flakyCheckpoints,
			}
			for _, name := range regNames {
				r := engine.Registry()
				if name != "" {
					r = engine.RegistryNamed(name)
				}
				if *failRetrains > 0 {
					r.SetRetrain(spec.Retrain(wisedb.DriftRetrain))
				}
			}
			if ms != nil && *flakyCheckpoints > 0 {
				ms.SetPayloadWriter(spec.PayloadWriter())
			}
			fmt.Fprintf(os.Stderr, "chaos armed: seed %d, VM failure rate %.2f, failing first %d retrains, %d flaky checkpoint writes\n",
				*chaosSeed, *vmFailureRate, *failRetrains, *flakyCheckpoints)
		}
		if *listen != "" {
			// Network daemon mode: serve until SIGTERM, then drain. The
			// in-process load-generator knobs (-streams, -queries, -delay)
			// do not apply; drive it with `wisedb load`.
			if (*dropRate > 0 || *stallRate > 0) && *chaosSeed == 0 {
				log.Fatal("-drop-rate and -stall-rate require -chaos-seed")
			}
			if *chaosSeed != 0 {
				spec.Net = wisedb.NetFaultSpec{DropRate: *dropRate, StallRate: *stallRate}
			}
			runDaemon(engine, ms, daemonConfig{
				listen: *listen, httpAddr: *httpAddr, maxConns: *maxConns,
				admitRate: *admitRate, admitBurst: *admitBurst,
				deadline: *deadline, drainGrace: *drainGrace,
				chaos: spec,
			})
			return
		}
		// Generate load against the serving model's own template set: a
		// loaded or warm-started model defines its environment.
		serve(engine, base.Env().Templates, serveConfig{
			streams: *streams, queries: *queries, delay: *delay, seed: *seed,
			skew: *skew, shiftAt: *shiftAt, parallelism: *parallelism,
			registries: regNames,
			chaos:      spec,
		})
		if ms != nil {
			if latest, ok := ms.LatestEpoch(); ok {
				fmt.Printf("model store %s: latest epoch %d of %d on disk\n", ms.Dir(), latest, len(ms.Entries()))
			}
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// buildServeEngine assembles the serving engine: warm start from the model
// store when it has epochs, otherwise train a base model — and attach
// checkpointing so every future hot swap lands durably. (-model with
// -store is rejected up front by validateFlags: a non-empty store defines
// what serves, and silently discarding an explicitly named model would
// mislead the operator.)
func buildServeEngine(opts wisedb.OnlineOptions, getModel func() *wisedb.Model, storeDir string, checkpoint bool) (*wisedb.OnlineScheduler, *wisedb.ModelStore) {
	if storeDir == "" {
		return wisedb.NewOnlineScheduler(getModel(), opts), nil
	}
	ms, err := wisedb.OpenModelStore(storeDir)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := wisedb.NewOnlineSchedulerFromStore(ms, opts)
	switch {
	case err == nil:
		ep := engine.Registry().Current()
		fmt.Fprintf(os.Stderr, "warm start: serving epoch %d from %s (zero training searches)\n", ep.Epoch, storeDir)
	case errors.Is(err, wisedb.ErrEmptyStore):
		fmt.Fprintf(os.Stderr, "model store %s is empty; bootstrapping a base model\n", storeDir)
		engine = wisedb.NewOnlineScheduler(getModel(), opts)
	default:
		log.Fatal(err)
	}
	if checkpoint {
		if err := engine.Registry().CheckpointTo(ms); err != nil {
			log.Fatal(err)
		}
	}
	return engine, ms
}

// serveConfig bundles the load-generator knobs of the serve mode.
type serveConfig struct {
	streams, queries int
	delay            time.Duration
	seed             int64
	skew, shiftAt    float64
	parallelism      int              // RunTenants workers; 0 = one per core
	registries       []string         // tier names; "" is the default registry
	chaos            wisedb.ChaosSpec // zero value injects nothing
}

// serve drives K tenant streams through one serving engine at full speed
// (virtual arrival clocks, real concurrency): tenants are replayed over
// cfg.parallelism workers and bound round-robin to its registries. The
// summary reports throughput, tail advisor latency, SLA
// violations, the scale-out counters, and — when a mix shift is injected —
// each registry's drift detections, hot swaps, and checkpoints.
func serve(engine *wisedb.OnlineScheduler, templates []wisedb.Template, cfg serveConfig) {
	tenants := make([]wisedb.Tenant, cfg.streams)
	shift := int(float64(cfg.queries) * cfg.shiftAt)
	k := len(templates)
	for i := range tenants {
		sampler := wisedb.NewSampler(templates, cfg.seed+int64(i)*101)
		var queries []wisedb.Query
		if cfg.skew > 0 {
			head := sampler.Uniform(shift)
			tail := sampler.Weighted(cfg.queries-shift, wisedb.SkewWeights(k, cfg.skew, k-1))
			queries = append(queries, head.Queries...)
			for _, q := range tail.Queries {
				q.Tag += shift
				queries = append(queries, q)
			}
		} else {
			queries = sampler.Uniform(cfg.queries).Queries
		}
		arrivals := make([]time.Duration, len(queries))
		for j := range arrivals {
			arrivals[j] = time.Duration(j) * cfg.delay
		}
		w := &wisedb.Workload{Templates: templates, Queries: queries}
		tenants[i] = wisedb.Tenant{
			Registry: cfg.registries[i%len(cfg.registries)],
			Workload: w.WithArrivals(arrivals),
			Faults:   cfg.chaos.VMPlan(i), // nil unless chaos is armed
		}
	}

	start := time.Now()
	results, err := engine.RunTenants(context.Background(), tenants, cfg.parallelism)
	elapsed := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	// Drain every registry's background retrains and checkpoints.
	names := engine.RegistryNames()
	for _, name := range names {
		engine.RegistryNamed(name).Wait()
	}

	totalArrivals, rented := 0, 0
	cost := 0.0
	var advisor []time.Duration
	var driftTriggers, readmitted int
	for _, res := range results {
		totalArrivals += len(res.PerArrival)
		rented += res.VMsRented
		cost += res.Cost
		advisor = append(advisor, res.PerArrival...)
		driftTriggers += res.DriftTriggers
		readmitted += res.FaultReadmissions
	}
	sort.Slice(advisor, func(i, j int) bool { return advisor[i] < advisor[j] })
	pct := func(p float64) time.Duration {
		if len(advisor) == 0 {
			return 0
		}
		idx := int(p / 100 * float64(len(advisor)-1))
		return advisor[idx]
	}

	fmt.Printf("served %d streams x %d queries in %s: %.0f arrivals/sec\n",
		cfg.streams, cfg.queries, elapsed.Round(time.Millisecond),
		float64(totalArrivals)/elapsed.Seconds())
	fmt.Printf("advisor latency p50 %s  p99 %s; %d VMs rented, total cost %.2f¢\n",
		pct(50).Round(time.Microsecond), pct(99).Round(time.Microsecond), rented, cost)
	scale := engine.ScaleStats()
	fmt.Printf("scale-out: %d registries, ω-map %d builds / %d entries; %d drift triggers\n",
		len(scale.Registries), scale.CacheBuilds, scale.CacheEntries, driftTriggers)
	// One line per tier: each detects drift, retrains, hot-swaps and
	// checkpoints on its own. Failure-path lines stay silent unless
	// something actually failed, retried or tripped. s.Failures is the
	// authoritative retrain-failure count: streams only tally DriftFailures
	// for synchronous retrains, while the registry counts background
	// failures too.
	for _, name := range names {
		s := scale.Registries[name]
		rb := s.Robustness
		fmt.Printf("tier %s: %d retrains, %d hot swaps, epoch %d\n", name, s.Triggers, s.Swaps, s.Epoch)
		if s.Checkpoints > 0 || s.CheckpointFailures > 0 {
			fmt.Printf("  checkpoints: %d committed, %d failed, %d retries; last file %s, %s encoding and committing in all\n",
				s.Checkpoints, s.CheckpointFailures, rb.CheckpointRetries, formatBytes(int(s.LastCheckpointBytes)),
				time.Duration(s.CheckpointNanos).Round(time.Millisecond))
		}
		if s.Failures > 0 || rb.BackoffSuppressed > 0 || rb.BreakerRejected > 0 || rb.BreakerOpens > 0 || rb.Breaker != "closed" {
			fmt.Printf("  retrain failures: %d failed, %d suppressed by backoff, %d rejected by the breaker; breaker %s (%d opens, %d closes)\n",
				s.Failures, rb.BackoffSuppressed, rb.BreakerRejected, rb.Breaker, rb.BreakerOpens, rb.BreakerCloses)
		}
		if s.LastErr != nil {
			fmt.Printf("  last retrain error: %v\n", s.LastErr)
		}
		if s.LastCheckpointErr != nil {
			fmt.Printf("  last checkpoint error: %v\n", s.LastCheckpointErr)
		}
	}
	if scale.DegradedArrivals > 0 || scale.DegradedPlacements > 0 || scale.ShedArrivals > 0 || readmitted > 0 {
		fmt.Printf("degradation: %d degraded arrivals, %d rerouted placements, %d shed arrivals, %d queries re-admitted after VM failures\n",
			scale.DegradedArrivals, scale.DegradedPlacements, scale.ShedArrivals, readmitted)
	}
}

// inspect dumps a model file's header, provenance, and mix histogram — or,
// for a store directory, its manifest lineage — without decoding any
// decision tree.
func inspect(path string) {
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	if fi.IsDir() {
		inspectStore(path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	info, err := wisedb.InspectModel(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: WiSeDB model container v%d, %d bytes, hash %016x\n", path, info.FormatVersion, len(data), info.Hash)
	var parts []string
	for _, s := range info.Sections {
		parts = append(parts, fmt.Sprintf("%s %s (%.0f%%)", wisedb.ModelSectionName(s.ID), formatBytes(s.Len), 100*float64(s.Len)/float64(len(data))))
	}
	fmt.Printf("sections: %s\n", strings.Join(parts, " · "))
	fmt.Printf("goal: %s (%s)\n", info.Goal.Name(), info.Goal.Key())
	cfg := info.Config
	fmt.Printf("trained: N=%d m=%d seed=%d in %s -> %d rows; search cache %d hits / %d misses\n",
		cfg.NumSamples, cfg.SampleSize, cfg.Seed, info.TrainingTime.Round(time.Millisecond),
		info.TrainingRows, info.CacheHits, info.CacheMisses)
	if info.WarmSamples > 0 {
		fmt.Printf("warm retrain: %d samples replayed, %d solved fresh\n", info.WarmSamples, info.ColdSamples)
	}
	fmt.Printf("environment: %d templates x %d VM types; training data retained: %v; search cache persisted: %v\n",
		len(info.Templates), len(info.VMTypes), info.HasTrainingData, info.HasSearchCache)
	mix := info.Mix
	if mix == nil {
		fmt.Println("training mix: uniform")
		return
	}
	fmt.Println("training mix histogram:")
	max := 0.0
	for _, w := range mix {
		if w > max {
			max = w
		}
	}
	for i, w := range mix {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", int(w/max*30+0.5))
		}
		name := fmt.Sprintf("T%d", i)
		if i < len(info.Templates) {
			name = info.Templates[i].Name
		}
		fmt.Printf("  %-12s %.3f %s\n", name, w, bar)
	}
}

// inspectStore prints a model store's lineage chain.
func inspectStore(dir string) {
	ms, err := wisedb.OpenModelStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	entries := ms.Entries()
	fmt.Printf("%s: model store, %d epochs\n", dir, len(entries))
	if q := ms.Quarantined(); len(q) > 0 {
		fmt.Printf("quarantined: %d corrupt file(s) set aside: %s\n", len(q), strings.Join(q, ", "))
	}
	if len(entries) == 0 {
		return
	}
	fmt.Printf("%7s %7s %-7s %8s %10s %7s %5s %6s %-20s %s\n",
		"epoch", "parent", "reason", "emd", "size", "retrain", "warm", "cache", "saved-at", "model-hash")
	for _, e := range entries {
		emd := "-"
		if e.EMD > 0 {
			emd = fmt.Sprintf("%.3f", e.EMD)
		}
		// Retrain cost and warm-reuse columns are recorded by drift
		// retrains only; base/manual/drain epochs show "-".
		retrain, warm, cache := "-", "-", "-"
		if e.RetrainMS > 0 {
			retrain = fmt.Sprintf("%dms", e.RetrainMS)
		}
		if e.WarmSamples+e.ColdSamples > 0 {
			warm = fmt.Sprintf("%d/%d", e.WarmSamples, e.WarmSamples+e.ColdSamples)
		}
		if total := e.CacheHits + e.CacheMisses; total > 0 {
			cache = fmt.Sprintf("%.0f%%", 100*float64(e.CacheHits)/float64(total))
		}
		fmt.Printf("%7d %7d %-7s %8s %10s %7s %5s %6s %-20s %016x\n",
			e.Epoch, e.Parent, e.Reason, emd, formatBytes(int(e.Size)), retrain, warm, cache,
			e.SavedAt.Format("2006-01-02T15:04:05Z"), e.ModelHash)
	}
}

// formatBytes renders a byte count compactly.
func formatBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func mustTrain(advisor *wisedb.Advisor, goal wisedb.Goal) *wisedb.Model {
	fmt.Fprintf(os.Stderr, "training %s model...\n", goal.Name())
	model, err := advisor.Train(goal)
	if err != nil {
		log.Fatal(err)
	}
	return model
}

func makeGoal(name string, templates []wisedb.Template) wisedb.Goal {
	switch name {
	case "max":
		return wisedb.NewMaxLatency(15*time.Minute, templates, wisedb.DefaultPenaltyRate)
	case "perquery":
		return wisedb.NewPerQuery(3, templates, wisedb.DefaultPenaltyRate)
	case "average":
		return wisedb.NewAverage(10*time.Minute, templates, wisedb.DefaultPenaltyRate)
	case "percentile":
		return wisedb.NewPercentile(90, 10*time.Minute, templates, wisedb.DefaultPenaltyRate)
	default:
		log.Fatalf("unknown goal %q (want max, perquery, average, percentile)", name)
		return nil
	}
}
