// Package countingnet is a library of counting networks and the executable
// theory of their consistency conditions, reproducing Mavronicolas,
// Merritt and Taubenfeld, "Sequentially Consistent versus Linearizable
// Counting Networks" (PODC 1999).
//
// It bundles five layers, each usable on its own:
//
//   - Construction and modelling: build the bitonic network B(w), the
//     periodic network P(w), merging and block networks, counting
//     (diffracting) trees, or custom balancing networks, and execute them
//     step-by-step, under random interleavings, or exhaustively (a small
//     model checker for the step property).
//
//   - Timed executions: schedule tokens with exact per-wire delays and
//     entry times (the paper's timing model), measure the realised timing
//     parameters c_min, c_max, C_L, C_g, and generate random schedule
//     families honouring a timing condition.
//
//   - Consistency: decide linearizability and sequential consistency of
//     counting executions, compute the paper's inconsistency fractions,
//     and audit a recorded history (Audit) for duplicates and for
//     real-time and session order.
//
//   - Theory: every timing condition of Table 1 and Theorem 4.1 as an
//     exact predicate, the Lemma 3.1 escort-wave machinery, the Theorem
//     3.2 transformation, the adversarial wave schedules of Propositions
//     5.2/5.3 and Theorem 5.11, and an experiment harness that reports
//     paper-versus-measured for every table and figure.
//
//   - Runtime: a genuinely concurrent (goroutines + atomics) shared-memory
//     implementation of any constructed network, with fetch-and-increment
//     and mutex baselines and a Workload that records every increment
//     for Audit.
//
// # Quick start
//
//	spec := countingnet.MustBitonic(8)        // build B(8)
//	ctr := countingnet.MustCompile(spec)      // lock-free concurrent form
//	v := ctr.Inc(myWire)                      // concurrent increments
//	rs := ctr.IncBatch(myWire, 1024)          // 1024 ids, O(balancers) atomics
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// paper-reproduction results.
package countingnet

import (
	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/msgnet"
	"repro/internal/network"
	"repro/internal/perfsim"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/viz"
)

// Modelling layer (package network).
type (
	// Network is an immutable balancing-network wiring.
	Network = network.Network
	// Builder assembles arbitrary balancing networks.
	Builder = network.Builder
	// LineBuilder assembles regular networks drawn on w horizontal lines.
	LineBuilder = network.LineBuilder
	// Layout is rendering metadata for line-built networks.
	Layout = network.Layout
	// Endpoint identifies a port on a source, balancer or sink.
	Endpoint = network.Endpoint
	// State is the mutable execution state of a network.
	State = network.State
	// Cursor is a token in flight through a State.
	Cursor = network.Cursor
)

// Construction layer (package construct).
var (
	// Bitonic builds the bitonic counting network B(w).
	Bitonic = construct.Bitonic
	// MustBitonic builds B(w) or panics.
	MustBitonic = construct.MustBitonic
	// Periodic builds the periodic counting network P(w).
	Periodic = construct.Periodic
	// MustPeriodic builds P(w) with top-bottom blocks or panics.
	MustPeriodic = construct.MustPeriodic
	// Merger builds the merging network M(w).
	Merger = construct.Merger
	// Block builds the block network L(w) in either Figure 5 construction.
	Block = construct.Block
	// Tree builds the (1,w) counting (diffracting) tree.
	Tree = construct.Tree
	// MustTree builds Tree(w) or panics.
	MustTree = construct.MustTree
	// SingleBalancer builds a one-balancer (f,f) network.
	SingleBalancer = construct.SingleBalancer
	// PeriodicPrefix builds the first k blocks of P(w) (a smoothing
	// network for k < lg w).
	PeriodicPrefix = construct.PeriodicPrefix
	// Figure2 builds the paper's Figure 2 example network.
	Figure2 = construct.Figure2
	// Isomorphic decides balancing-network graph isomorphism.
	Isomorphic = construct.Isomorphic
)

// Block construction variants (Figure 5).
const (
	BlockOddEven   = construct.BlockOddEven
	BlockTopBottom = construct.BlockTopBottom
)

// Model execution and verification helpers.
var (
	// NewBuilder starts an arbitrary-network builder.
	NewBuilder = network.NewBuilder
	// NewLineBuilder starts a w-line builder.
	NewLineBuilder = network.NewLineBuilder
	// NewState returns a network's initial execution state.
	NewState = network.NewState
	// VerifyCounting checks the counting property under random interleaving.
	VerifyCounting = network.VerifyCounting
	// VerifyCountingExhaustive model-checks the counting property over all
	// interleavings of a small token set.
	VerifyCountingExhaustive = network.VerifyCountingExhaustive
	// ExploreInterleavings enumerates all reachable final configurations.
	ExploreInterleavings = network.ExploreInterleavings
)

// Timed-execution layer (package sim).
type (
	// TokenSpec describes one token of a timed schedule.
	TokenSpec = sim.TokenSpec
	// Trace is a completed timed execution.
	Trace = sim.Trace
	// TokenRecord is one completed token in a Trace.
	TokenRecord = sim.TokenRecord
	// Params are measured timing parameters of a trace.
	Params = sim.Params
	// GenConfig describes a random-schedule family.
	GenConfig = sim.GenConfig
	// DelayFunc gives a token's per-segment wire delays.
	DelayFunc = sim.DelayFunc
)

var (
	// Run executes a timed schedule on a uniform network.
	Run = sim.Run
	// Generate draws a random schedule honouring a timing condition.
	Generate = sim.Generate
	// MeasureTrace computes the realised timing parameters of a trace.
	MeasureTrace = sim.Measure
	// ConstantDelay and PiecewiseDelay build DelayFuncs.
	ConstantDelay  = sim.ConstantDelay
	PiecewiseDelay = sim.PiecewiseDelay
)

// Consistency layer (package consistency).
type (
	// Fractions are the paper's inconsistency fractions.
	Fractions = consistency.Fractions
	// AuditRecord is one completed operation as its caller saw it.
	AuditRecord = consistency.Record
	// AuditReport is what Audit found: duplicates, values out of range,
	// and real-time and session order per mode.
	AuditReport = consistency.Report
)

var (
	// Linearizable and SequentiallyConsistent decide the two conditions.
	Linearizable           = consistency.Linearizable
	SequentiallyConsistent = consistency.SequentiallyConsistent
	// WitnessNonSequentiallyConsistent extracts a concrete violating pair.
	WitnessNonSequentiallyConsistent = consistency.WitnessNonSequentiallyConsistent
	// Audit checks a history of records against the counter's contract.
	Audit = consistency.Audit
	// NewOnlineMonitor starts a streaming consistency monitor.
	NewOnlineMonitor = consistency.NewOnline
)

// Structural-analysis layer (package topology).
type (
	// TopologyAnalysis caches valency structure.
	TopologyAnalysis = topology.Analysis
	// SplitSequence is the Section 5.3 split sequence.
	SplitSequence = topology.SplitSequence
	// SinkSet is a set of output-wire indices.
	SinkSet = topology.SinkSet
)

var (
	// Analyze computes valencies, split depth and influence radius.
	Analyze = topology.Analyze
	// ComputeSplitSequence derives S^(0), S^(1), ... and sp(G).
	ComputeSplitSequence = topology.ComputeSplitSequence
)

// Theory layer (package core).
type (
	// Timing is a timing condition (c_min, c_max, C_L, C_g bounds).
	Timing = core.Timing
	// WaveResult is the outcome of an adversarial wave schedule.
	WaveResult = core.WaveResult
	// Experiment is one paper-versus-measured reproduction.
	Experiment = core.Experiment
	// ExperimentConfig sizes the experiment suite.
	ExperimentConfig = core.Config
)

var (
	// Table 1 / Theorem 4.1 predicates.
	SufficientLinGlobal   = core.SufficientLinGlobal
	SufficientLinRatio    = core.SufficientLinRatio
	SufficientLinShallow  = core.SufficientLinShallow
	NecessaryLinInfluence = core.NecessaryLinInfluence
	SufficientSCLocal     = core.SufficientSCLocal
	MinLocalDelaySC       = core.MinLocalDelaySC
	DistinguishingTiming  = core.DistinguishingTiming
	// Constructions from the proofs.
	Lemma31Insertion   = core.Lemma31Insertion
	Theorem32Transform = core.Theorem32Transform
	Theorem511Waves    = core.Theorem511Waves
	Proposition53Waves = core.Proposition53Waves
	TreeWaves          = core.TreeWaves
	Theorem54Probe     = core.Theorem54Probe
	// Experiment harness.
	RunAllExperiments       = core.RunAll
	DefaultExperimentConfig = core.DefaultConfig
	FormatReport            = core.FormatReport
)

// Runtime layer (package runtime).
type (
	// Counter is any concurrent counter (network or baseline).
	Counter = runtime.Counter
	// Workload drives a Counter from concurrent workers and returns one
	// AuditRecord per increment, stamped in wall-clock time.
	Workload = runtime.Workload
	// AtomicCounter and MutexCounter are the baselines.
	AtomicCounter = runtime.AtomicCounter
	MutexCounter  = runtime.MutexCounter
)

var (
	// Compile flattens a Network into its concurrent form.
	Compile = runtime.Compile
	// MustCompile compiles or panics.
	MustCompile = runtime.MustCompile
	// NewLinearizableCounter wraps a counter with HSW96-style waiting,
	// serializing completions in value order to obtain linearizability.
	NewLinearizableCounter = runtime.NewLinearizableCounter
	// ExpandRanges flattens IncBatch ranges into concrete values.
	ExpandRanges = runtime.ExpandRanges
)

// Message-passing substrate (package msgnet): balancers as goroutine
// actors, wires as channels — the other implementation style Section 2.3
// says the timing model captures.
type MessagePassingNetwork = msgnet.Network

// StartMessagePassing spins up the actor network for a wiring spec.
var StartMessagePassing = msgnet.Start

// ErrClosed and ErrTimeout are the typed failures of the context-aware
// counting API (IncCtx).
var (
	ErrClosed  = fault.ErrClosed
	ErrTimeout = fault.ErrTimeout
)

// Telemetry layer (package telemetry): per-balancer metrics, latency
// histograms and the live HTTP observability surface.
// Attach to a compiled network with SetObserver, or to a message-passing
// one with WithTelemetryObserver; both hooks are zero-cost when absent.
type (
	// TelemetryCollector accumulates lock-free per-balancer, per-wire and
	// per-sink traffic counts plus an Inc latency histogram.
	TelemetryCollector = telemetry.Collector
	// TelemetrySnapshot is a merged, JSON-serialisable collector view.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryObserver is the event hook Collector implements.
	TelemetryObserver = telemetry.Observer
	// LatencySummary is a latency histogram snapshot with quantiles.
	LatencySummary = telemetry.LatencySummary
)

var (
	// NewTelemetryCollector builds a collector for a network shape
	// (balancers, input wires, sinks); NewTelemetryCollectorFor sizes one
	// from a network directly.
	NewTelemetryCollector    = telemetry.NewCollector
	NewTelemetryCollectorFor = telemetry.NewCollectorFor
	// TelemetryHandler serves /metrics, /debug/countingnet and pprof for a
	// collector plus an optional online consistency monitor.
	TelemetryHandler = telemetry.Handler
	// WithTelemetryObserver instruments a message-passing network (pass to
	// StartMessagePassing).
	WithTelemetryObserver = msgnet.WithObserver
	// Heatmap renders per-balancer traffic over the network's layers.
	Heatmap = viz.Heatmap
)

// Contention model (package perfsim) — the queueing substitute for a
// multiprocessor testbed; see DESIGN.md's substitution table.
type (
	// PerfConfig parameterises one queueing-model run.
	PerfConfig = perfsim.Config
	// PerfResult summarises throughput/latency/bottleneck utilization.
	PerfResult = perfsim.Result
	// PerfObject is a counter structure in the queueing model.
	PerfObject = perfsim.Object
	// CentralObject is the single-location baseline.
	CentralObject = perfsim.CentralObject
)

var (
	// SimulateContention runs the queueing model.
	SimulateContention = perfsim.Simulate
	// NewNetworkObject wraps a Network for the queueing model.
	NewNetworkObject = perfsim.NewNetworkObject
)

// Rendering layer (package viz).
var (
	// Render draws a line-built network as ASCII art.
	Render = viz.Render
	// RenderSplit adds Figure 7's split-layer annotations.
	RenderSplit = viz.RenderSplit
	// RenderTree draws the counting tree.
	RenderTree = viz.RenderTree
	// Describe summarises a network's structural parameters.
	Describe = viz.Describe
	// Timeline renders a timed execution as a time-space diagram.
	Timeline = viz.Timeline
	// FormatTrace renders a trace as a per-token table.
	FormatTrace = sim.FormatTrace
)
