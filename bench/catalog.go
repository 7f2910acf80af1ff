package main

// workloadDef is one of the five workloads. Every workload is a closed
// loop: the next op is issued when the previous one returns (wire-steady
// keeps a window of 64 Submit frames in flight on its one connection).
type workloadDef struct {
	name, why string
	// tailPct is the percentile op_tail_us reports: the highest that still
	// has ten samples beyond it in a run of the committed length.
	tailPct float64
	// spansPerOp sizes the trace buffer.
	spansPerOp float64
	// opsPerSample is how many ops one clock interval covers (each gets an
	// equal share of it): 1 unless single ops are shorter than 1 µs.
	opsPerSample int
	// setupK is the number of timed from-scratch set-ups whose median is
	// setup_s, sized so that K × set-up is 3–8 s; one more is run first and
	// discarded when K > 1. minRounds is the least number of timed rounds,
	// that is of repetitions of every op.
	setupK, minRounds int
	setup             func(in *inputs) (instance, error)
}

var workloads = []*workloadDef{
	{
		name:         "wire-steady",
		why:          "fresh single-query batches over loopback TCP: the engine does its least work per arrival, so wire codec, syscalls and the server loop dominate",
		tailPct:      99,
		spansPerOp:   2.1,
		opsPerSample: 1,
		setupK:       21,
		minRounds:    15,
		setup:        setupWire,
	},
	{
		name:         "stream-backlog",
		why:          "in-process arrivals every 30 s: two thirds revoke a waiting backlog and re-run the shifted model, so the serving hot path dominates and wire/server do nothing",
		tailPct:      99,
		spansPerOp:   1.01,
		opsPerSample: numTemplates,
		setupK:       1, // one set-up is ≈ 7 s
		minRounds:    15,
		setup:        func(in *inputs) (instance, error) { return setupStream(in, false) },
	},
	{
		name:         "stream-degraded",
		why:          "the same arrivals against a model that cannot be shifted: the stream falls back to first-fit, the serving layer's failure path",
		tailPct:      99,
		spansPerOp:   1.01,
		opsPerSample: numTemplates,
		setupK:       21,
		minRounds:    15,
		setup:        func(in *inputs) (instance, error) { return setupStream(in, true) },
	},
	{
		name:         "train-adapt",
		why:          "offline training of all four goal families plus tighten and shift adaptation: cold A* solves, tree build and compile dominate, serving does nothing",
		tailPct:      90,
		spansPerOp:   1,
		opsPerSample: 1,
		setupK:       11,
		minRounds:    17,
		setup:        setupTrain,
	},
	{
		name:         "retrain-steady",
		why:          "drift retrains along a small mix walk with checkpointing: most samples replay, few are solved, and it alone exercises persistence and the store",
		tailPct:      90,
		spansPerOp:   2,
		opsPerSample: 1,
		setupK:       21,
		minRounds:    15,
		setup:        setupRetrain,
	},
}

func findWorkload(name string) *workloadDef {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// metricDef names one metric. better is "lower" or "higher"; bound is the
// share of the parent's median by which an end-to-end metric may get worse
// (per-layer metrics have none).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics of the untraced run, the same on every
// workload. failed_ops_ratio is printed with them but is not one of
// BENCHMARK.json's bounded metrics: it is 0 on a healthy run, a relative
// bound on 0 means nothing, and the result line carries it as
// failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"cost_cents_per_query", "cents", "lower", 0.005},
}

var failedOpsRatio = metricDef{name: "failed_ops_ratio", unit: "ratio", better: "lower"}

// perLayer lists the metrics of the traced run, by layer (the module
// names). A workload reports 0 for the layers it does not exercise.
var perLayer = []metricDef{
	{name: "wire.submit_encode_ns", unit: "ns", better: "lower"},
	{name: "wire.submit_decode_ns", unit: "ns", better: "lower"},
	{name: "wire.ack_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_arrival", unit: "B", better: "lower"},

	{name: "server.client_send_ns", unit: "ns", better: "lower"},
	{name: "server.client_flush_ns", unit: "ns", better: "lower"},
	{name: "server.client_readack_ns", unit: "ns", better: "lower"},
	{name: "server.residual_ns_per_arrival", unit: "ns", better: "lower"},
	{name: "server.frames", unit: "count", better: "lower"},
	{name: "server.admitted", unit: "count", better: "higher"},
	{name: "server.shed", unit: "count", better: "lower"},
	{name: "server.completed", unit: "count", better: "higher"},
	{name: "server.start_ms", unit: "ms", better: "lower"},
	{name: "server.shutdown_ms", unit: "ms", better: "lower"},

	{name: "core.stream.submit_ns", unit: "ns", better: "lower"},
	{name: "core.stream.advisor_ns", unit: "ns", better: "lower"},
	{name: "core.stream.place_ns", unit: "ns", better: "lower"},
	{name: "core.stream.open_ns", unit: "ns", better: "lower"},
	{name: "core.stream.finish_ns_per_arrival", unit: "ns", better: "lower"},
	{name: "core.stream.omega_fill_ms", unit: "ms", better: "lower"},
	{name: "core.stream.omega_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.stream.omega_builds", unit: "count", better: "lower"},
	{name: "core.stream.vms_rented", unit: "count", better: "lower"},
	{name: "core.stream.degraded_arrivals", unit: "count", better: "lower"},
	{name: "core.stream.shed_arrivals", unit: "count", better: "lower"},
	{name: "core.stream.drift_triggers", unit: "count", better: "lower"},

	{name: "core.batch.schedule_ns_per_query.n10", unit: "ns", better: "lower"},
	{name: "core.batch.schedule_ns_per_query.n100", unit: "ns", better: "lower"},
	{name: "core.batch.schedule_ns_per_query.n1000", unit: "ns", better: "lower"},
	{name: "core.batch.allocs_per_call.n100", unit: "count", better: "lower"},

	{name: "features.step_ns", unit: "ns", better: "lower"},
	{name: "dt.predict_ns", unit: "ns", better: "lower"},
	{name: "dt.tree_nodes", unit: "count", better: "lower"},

	{name: "cloud.sim_enqueue_ns", unit: "ns", better: "lower"},
	{name: "cloud.sim_revoke_ns", unit: "ns", better: "lower"},
	{name: "cloud.sim_finish_ns_per_run", unit: "ns", better: "lower"},

	{name: "heuristics.firstfit_ns_per_query", unit: "ns", better: "lower"},

	{name: "core.advisor.train_ms.max", unit: "ms", better: "lower"},
	{name: "core.advisor.train_ms.perquery", unit: "ms", better: "lower"},
	{name: "core.advisor.train_ms.average", unit: "ms", better: "lower"},
	{name: "core.advisor.train_ms.percentile", unit: "ms", better: "lower"},
	{name: "core.advisor.adapt_ms.tighten", unit: "ms", better: "lower"},
	{name: "core.advisor.adapt_ms.shift", unit: "ms", better: "lower"},
	{name: "core.advisor.training_rows", unit: "count", better: "lower"},
	{name: "core.advisor.parallel_speedup", unit: "ratio", better: "higher"},

	{name: "workload.sample_us", unit: "us", better: "lower"},
	{name: "search.solve_us_per_sample.max", unit: "us", better: "lower"},
	{name: "search.solve_us_per_sample.perquery", unit: "us", better: "lower"},
	{name: "search.solve_us_per_sample.average", unit: "us", better: "lower"},
	{name: "search.solve_us_per_sample.percentile", unit: "us", better: "lower"},
	{name: "search.expanded_per_sample.max", unit: "count", better: "lower"},
	{name: "search.expanded_per_sample.perquery", unit: "count", better: "lower"},
	{name: "search.expanded_per_sample.average", unit: "count", better: "lower"},
	{name: "search.expanded_per_sample.percentile", unit: "count", better: "lower"},
	{name: "search.cache_hit_ratio.max", unit: "ratio", better: "higher"},
	{name: "search.cache_hit_ratio.perquery", unit: "ratio", better: "higher"},
	{name: "search.cache_hit_ratio.average", unit: "ratio", better: "higher"},
	{name: "search.cache_hit_ratio.percentile", unit: "ratio", better: "higher"},
	{name: "search.adapt_solve_us_per_sample", unit: "us", better: "lower"},
	{name: "search.replay_us_per_sample", unit: "us", better: "lower"},
	{name: "dt.train_ms.max", unit: "ms", better: "lower"},
	{name: "dt.train_ms.perquery", unit: "ms", better: "lower"},
	{name: "dt.train_ms.average", unit: "ms", better: "lower"},
	{name: "dt.train_ms.percentile", unit: "ms", better: "lower"},
	{name: "dt.compile_us", unit: "us", better: "lower"},

	{name: "core.warm.retrain_ms", unit: "ms", better: "lower"},
	{name: "core.warm.cold_retrain_ms", unit: "ms", better: "lower"},
	{name: "core.warm.replayed_ratio", unit: "ratio", better: "higher"},
	{name: "core.warm.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.warm.matches_cold", unit: "ratio", better: "higher"},

	{name: "core.registry.retrain_now_ms", unit: "ms", better: "lower"},
	{name: "core.registry.swap_ns", unit: "ns", better: "lower"},
	{name: "core.registry.checkpoint_wait_ms", unit: "ms", better: "lower"},

	{name: "core.persist.encode_ms", unit: "ms", better: "lower"},
	{name: "core.persist.decode_ms", unit: "ms", better: "lower"},
	{name: "core.persist.model_bytes", unit: "B", better: "lower"},
	{name: "store.commit_ms", unit: "ms", better: "lower"},
	{name: "store.latest_ms", unit: "ms", better: "lower"},

	{name: "process.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "process.allocs_per_op", unit: "count", better: "lower"},
	{name: "process.gc_cycles_per_kop", unit: "count", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "process.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "process.layers_sum_ratio", unit: "ratio", better: "higher"},
}

var goalNames = [4]string{"max", "perquery", "average", "percentile"}
