// Package wisedb is a workload management advisor for cloud databases — a
// from-scratch Go reproduction of "WiSeDB: A Learning-based Workload
// Management Advisor for Cloud Databases" (Marcus & Papaemmanouil,
// VLDB 2016).
//
// Given an application's query templates and a latency-based performance
// goal (an SLA), WiSeDB learns a decision-tree strategy from provably
// optimal schedules of small sample workloads. The strategy drives holistic
// workload management: how many VMs to rent (and of which type), which VM
// each query runs on, and the execution order within each VM — minimizing
// start-up fees plus processing fees plus SLA penalties.
//
// # Quickstart
//
//	templates := wisedb.DefaultTemplates(10)           // TPC-H-like, 2-6 min
//	vmTypes := wisedb.DefaultVMTypes(1)                // t2.medium pricing
//	env := wisedb.NewEnv(templates, vmTypes)
//	goal := wisedb.NewMaxLatency(15*time.Minute, templates, wisedb.DefaultPenaltyRate)
//
//	advisor, err := wisedb.NewAdvisor(env, wisedb.DefaultTrainConfig())
//	model, err := advisor.Train(goal)                  // offline, once
//	...
//	sched, err := model.ScheduleBatch(workload)        // runtime, any size
//	cost := sched.Cost(env, goal)                      // cents
//
// Models support adaptive re-training for stricter goals (Model.Adapt),
// exploration of performance/cost trade-offs (Advisor.Recommend), and
// non-preemptive online scheduling (NewOnlineScheduler).
//
// Models persist across restarts: SaveModel/LoadModel round-trip a trained
// model through a versioned, checksummed binary format with zero training
// searches on load, and a serving engine checkpoints every hot-swapped
// epoch to a crash-safe ModelStore (Registry().CheckpointTo) from which
// NewOnlineSchedulerFromStore warm-starts after a restart.
//
// Training solves its N sample workloads on a worker pool
// (TrainConfig.Parallelism, default all cores) and is bit-identical for
// every worker count; Advisor.TrainContext accepts a context for
// cancellation. A trained Model is immutable and safe for concurrent use —
// one Model can serve ScheduleBatch from many goroutines at once.
//
// The facade re-exports the library's internal packages; see DESIGN.md for
// the architecture and EXPERIMENTS.md for the paper-reproduction results.
package wisedb

import (
	"time"

	"wisedb/internal/chaos"
	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/scenario"
	"wisedb/internal/schedule"
	"wisedb/internal/server"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/wire"
	"wisedb/internal/workload"
)

// Core advisor types.
type (
	// Advisor generates workload-management models for one environment.
	Advisor = core.Advisor
	// Model is a trained workload-management strategy.
	Model = core.Model
	// TrainConfig tunes model generation (N samples of m queries).
	TrainConfig = core.TrainConfig
	// Strategy is a recommended service tier with a cost estimator.
	Strategy = core.Strategy
	// RecommendConfig tunes strategy recommendation.
	RecommendConfig = core.RecommendConfig
	// OnlineScheduler is the multi-tenant online serving engine.
	OnlineScheduler = core.OnlineScheduler
	// OnlineOptions tunes online scheduling and its optimizations.
	OnlineOptions = core.OnlineOptions
	// OnlineResult reports the outcome of one arrival stream.
	OnlineResult = core.OnlineResult
	// Outcome is one completed query of an online stream.
	Outcome = core.Outcome
	// Stream is one tenant's event-driven arrival stream.
	Stream = core.Stream
	// Clock supplies stream time (SimClock for virtual, WallClock for live).
	Clock = core.Clock
	// SimClock is a virtual clock advanced by its driver.
	SimClock = core.SimClock
	// WallClock reads real elapsed time for live serving.
	WallClock = core.WallClock
	// DriftOptions configures workload-drift detection and hot-swapping.
	DriftOptions = core.DriftOptions
	// ModelRegistry is the hot-swappable model lifecycle subsystem.
	ModelRegistry = core.ModelRegistry
	// ModelEpoch is one immutable serving generation of a model.
	ModelEpoch = core.ModelEpoch
	// RegistryStats snapshots a registry's lifecycle counters.
	RegistryStats = core.RegistryStats
	// RetrainFunc builds a replacement model for an observed arrival mix.
	RetrainFunc = core.RetrainFunc
	// Tenant is one tenant stream for batch replay (RunTenants): registry
	// tier, arrival stream, and optional fault plan.
	Tenant = core.Tenant
	// ScaleStats snapshots what the engine owns (ω-map size, failure-path
	// totals) and each registry's RegistryStats under its tier name.
	ScaleStats = core.ScaleStats
)

// Robustness and fault-injection types.
type (
	// FaultSpec configures deterministic VM failures and stragglers in
	// the cloud simulator; the zero value injects nothing.
	FaultSpec = cloud.FaultSpec
	// FaultPlan is a seeded fault plan a simulator draws VM fates from.
	FaultPlan = cloud.FaultPlan
	// RetryPolicy tunes the registry's retrain backoff, circuit breaker,
	// and bounded checkpoint retry.
	RetryPolicy = core.RetryPolicy
	// RobustnessStats snapshots the failure-path counters: backoff
	// suppressions, breaker state and transitions, checkpoint retries.
	RobustnessStats = core.RobustnessStats
	// ChaosSpec describes one seeded chaos scenario across the serving
	// stack's failure domains (VM faults, retrain failures, flaky
	// checkpoint writes, dropped/stalled connections).
	ChaosSpec = chaos.Spec
	// NetFaultSpec configures dropped and stalled connections at the
	// serving daemon's listener (ChaosSpec.Net + WrapListener).
	NetFaultSpec = chaos.NetFaultSpec
)

// Network serving types: the wisedb daemon and its client.
type (
	// ServerConfig configures the overload-safe serving daemon:
	// listener, HTTP sidecar, connection cap, timeouts, token-bucket
	// admission, default placement deadline, drain grace.
	ServerConfig = server.Config
	// Server is the TCP serving daemon (New/Start/Shutdown).
	Server = server.Server
	// ServerStats snapshots the daemon's ingress counters plus the
	// engine's ScaleStats.
	ServerStats = server.Stats
	// ClientOptions configures a daemon client connection.
	ClientOptions = server.Options
	// Client is one pipelined connection to the daemon — one tenant
	// stream (Send/Flush/ReadAck, or the synchronous Submit).
	Client = server.Client
	// ClientResult is a stream's final accounting over the wire.
	ClientResult = server.Result
	// WireQuery is one query reference inside a Submit frame.
	WireQuery = wire.Query
)

// Wire clock modes for ClientOptions.Clock: wall time (the server
// stamps arrivals) or virtual time (the client's arrival instants drive
// the stream clock — replay and load-generation mode).
const (
	ClockWall    = wire.ClockWall
	ClockVirtual = wire.ClockVirtual
)

// Durable model persistence types.
type (
	// ModelStore is a crash-safe on-disk directory of model epochs.
	ModelStore = store.ModelStore
	// Lineage records one persisted epoch's provenance (parent epoch,
	// install reason, trigger EMD, target mix, content hash).
	Lineage = store.Lineage
	// ModelInfo summarizes a model file without decoding its tree.
	ModelInfo = core.ModelInfo
)

// Typed decode errors of the model format (match with errors.Is).
var (
	// ErrBadMagic reports input that is not a WiSeDB model container.
	ErrBadMagic = store.ErrBadMagic
	// ErrVersion reports a container from an unsupported format version.
	ErrVersion = store.ErrVersion
	// ErrTruncated reports input shorter than its own structure claims.
	ErrTruncated = store.ErrTruncated
	// ErrCRC reports a section failing its checksum.
	ErrCRC = store.ErrCRC
	// ErrCorrupt reports structurally invalid section content.
	ErrCorrupt = store.ErrCorrupt
	// ErrEmptyStore reports a model store with no recoverable epochs.
	ErrEmptyStore = store.ErrEmpty
	// ErrInjected marks every fault the chaos harness injects.
	ErrInjected = chaos.ErrInjected
)

// ModelFormatVersion is the version of the model container format this
// build reads and writes.
const ModelFormatVersion = store.FormatVersion

// Workload model types.
type (
	// Template is a query template: instances share a latency profile.
	Template = workload.Template
	// Query is an instance of a template.
	Query = workload.Query
	// Workload is a multiset of queries to schedule.
	Workload = workload.Workload
	// Sampler draws random workloads from a template set.
	Sampler = workload.Sampler
)

// Cloud substrate types.
type (
	// VMType is a rentable VM configuration with its prices.
	VMType = cloud.VMType
	// Predictor estimates per-template latencies per VM type.
	Predictor = cloud.Predictor
	// PriceSchedule is a piecewise-constant time-varying price multiplier
	// over the VM fee structure (spot-style pricing); nil means flat.
	PriceSchedule = cloud.PriceSchedule
	// PriceStep is one segment of a PriceSchedule.
	PriceStep = cloud.PriceStep
)

// Scenario harness types: composable seeded arrival/mix/price scenarios
// replayed through the serving engine (see internal/scenario).
type (
	// ScenarioSpec is one named seeded scenario: tenants with arrival
	// and template-mix processes, plus an optional price schedule.
	ScenarioSpec = scenario.Spec
	// ScenarioTenant is one tenant inside a ScenarioSpec.
	ScenarioTenant = scenario.TenantSpec
	// ArrivalProcess generates seeded inter-arrival gaps (Poisson,
	// Pareto, Diurnal, FlashCrowd).
	ArrivalProcess = scenario.ArrivalProcess
	// MixProcess generates time-varying template weights (StaticMix,
	// DiurnalMix, ShiftMix).
	MixProcess = scenario.MixProcess
)

// Scheduling types.
type (
	// Env bundles templates, VM types, and the latency predictor.
	Env = schedule.Env
	// Schedule assigns queries to ordered VM queues.
	Schedule = schedule.Schedule
	// VM is one rented machine inside a schedule.
	VM = schedule.VM
)

// Performance goals (SLAs).
type (
	// Goal is a performance goal with its penalty function.
	Goal = sla.Goal
	// MaxLatency bounds the worst query latency in a workload.
	MaxLatency = sla.MaxLatency
	// PerQuery bounds each template's query latency separately.
	PerQuery = sla.PerQuery
	// Average bounds the mean query latency of a workload.
	Average = sla.Average
	// Percentile requires y% of queries to finish within a deadline.
	Percentile = sla.Percentile
	// QueryPerf is a per-query outcome goals are evaluated against.
	QueryPerf = sla.QueryPerf
)

// DefaultPenaltyRate is the paper's penalty rate: 1 cent per second of
// violation.
const DefaultPenaltyRate = sla.DefaultPenaltyRate

// Constructors re-exported from the internal packages.
var (
	// NewAdvisor returns an Advisor for an environment. A zero-value
	// TrainConfig trains at the default scale; invalid values are
	// reported as an error.
	NewAdvisor = core.NewAdvisor
	// MustNewAdvisor is NewAdvisor panicking on error, for statically
	// known-good configuration.
	MustNewAdvisor = core.MustNewAdvisor
	// DefaultTrainConfig is the experiment-scale training configuration.
	DefaultTrainConfig = core.DefaultTrainConfig
	// PaperTrainConfig is the paper's §7.1 scale (N=3000, m=18).
	PaperTrainConfig = core.PaperTrainConfig
	// DefaultRecommendConfig tunes Recommend like the paper's tiers.
	DefaultRecommendConfig = core.DefaultRecommendConfig
	// NewOnlineScheduler builds the serving engine over a base model.
	NewOnlineScheduler = core.NewOnlineScheduler
	// DefaultOnlineOptions enables both §6.3.1 optimizations.
	DefaultOnlineOptions = core.DefaultOnlineOptions
	// NewWallClock returns a live clock for event-driven streams.
	NewWallClock = core.NewWallClock
	// DriftRetrain is the default drift response: re-train toward the
	// observed arrival mix at the base model's scale.
	DriftRetrain = core.DriftRetrain
	// NewFaultPlan seeds a deterministic VM fault plan for a simulator.
	NewFaultPlan = cloud.NewFaultPlan
	// DefaultRetryPolicy is the registry's stock retry discipline:
	// exponential backoff with jitter plus a circuit breaker on retrains,
	// and a 3-attempt bounded checkpoint retry.
	DefaultRetryPolicy = core.DefaultRetryPolicy
	// FailFirstRetrains wraps a RetrainFunc so its first k calls fail
	// with ErrInjected — the chaos harness's retrain injector.
	FailFirstRetrains = chaos.FailFirstRetrains
	// FlakyPayloadWriter fails the first k model-store payload writes
	// with ErrInjected, then writes atomically.
	FlakyPayloadWriter = chaos.FlakyPayloadWriter
	// NewServer validates a config and returns an unstarted daemon.
	NewServer = server.New
	// DialServer connects a client to the daemon with jittered-backoff
	// retries.
	DialServer = server.Dial

	// SaveModel atomically writes a model's versioned binary encoding;
	// LoadModel reads one back, serving-ready with zero training
	// searches. EncodeModel/DecodeModel are the in-memory counterparts,
	// and InspectModel summarizes a file without decoding its tree.
	SaveModel    = core.SaveModelFile
	LoadModel    = core.LoadModelFile
	EncodeModel  = core.EncodeModel
	DecodeModel  = core.DecodeModel
	InspectModel = core.InspectModel
	// ModelSectionName renders a model-container section ID.
	ModelSectionName = core.SectionName
	// OpenModelStore opens (creating and crash-recovering as needed) a
	// durable model store directory.
	OpenModelStore = store.Open
	// NewOnlineSchedulerFromStore warm-starts a serving engine from a
	// model store's newest intact epoch.
	NewOnlineSchedulerFromStore = core.NewOnlineSchedulerFromStore

	// DefaultTemplates synthesizes the paper's TPC-H-like template set.
	DefaultTemplates = workload.DefaultTemplates
	// NewSampler returns a deterministic workload sampler.
	NewSampler = workload.NewSampler
	// SkewWeights interpolates template weights between uniform and a
	// point mass — the §7.5 skewed-workload generator.
	SkewWeights = workload.SkewWeights
	// FixedDelayArrivals builds an arrival schedule with a constant gap,
	// for Workload.WithArrivals and Tenant streams.
	FixedDelayArrivals = workload.FixedDelayArrivals

	// DefaultVMTypes returns EC2-like VM types (t2.medium, t2.small, ...).
	DefaultVMTypes = cloud.DefaultVMTypes
	// NewPriceSchedule builds a validated piecewise-constant price
	// schedule (first step at 0, positive multipliers, increasing starts).
	NewPriceSchedule = cloud.NewPriceSchedule
	// SpotPrices generates a seeded bounded random-walk price schedule —
	// the spot-market simulator behind the scenario harness.
	SpotPrices = cloud.Spot
	// ScenarioCatalog returns the committed seeded scenario specs
	// (Poisson, Pareto, diurnal, flash-crowd, priority tiers, spot
	// pricing, correlated mix shift) the scenario tests pin.
	ScenarioCatalog = scenario.Catalog

	// NewEnv builds an Env with the exact latency predictor.
	NewEnv = schedule.NewEnv
)

// NewMaxLatency builds a Max goal: no query may exceed deadline.
func NewMaxLatency(deadline time.Duration, templates []Template, rate float64) MaxLatency {
	return sla.NewMaxLatency(deadline, templates, rate)
}

// NewPerQuery builds a PerQuery goal: queries of each template must finish
// within multiplier × the template's latency.
func NewPerQuery(multiplier float64, templates []Template, rate float64) PerQuery {
	return sla.NewPerQuery(multiplier, templates, rate)
}

// NewAverage builds an Average goal: the workload's mean latency must not
// exceed deadline.
func NewAverage(deadline time.Duration, templates []Template, rate float64) Average {
	return sla.NewAverage(deadline, templates, rate)
}

// NewPercentile builds a Percentile goal: percent% of queries must finish
// within deadline.
func NewPercentile(percent float64, deadline time.Duration, templates []Template, rate float64) Percentile {
	return sla.NewPercentile(percent, deadline, templates, rate)
}
