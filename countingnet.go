// Package countingnet is a library of counting networks and the executable
// theory of their consistency conditions, reproducing Mavronicolas,
// Merritt and Taubenfeld, "Sequentially Consistent versus Linearizable
// Counting Networks" (PODC 1999).
//
// The facade exports what the examples and commands call; the rest of the
// paper's machinery stays in the internal packages its experiments run.
// It bundles these layers, each usable on its own:
//
//   - Construction and modelling: build the bitonic network B(w), the
//     periodic network P(w), merging and block networks, the counting
//     (diffracting) tree, or a custom balancing network (NewBuilder);
//     traverse it step by step (NewState), check the counting property
//     under random interleavings (VerifyCounting), and compute its
//     valencies and split sequence (Analyze, ComputeSplitSequence).
//
//   - Timed executions: run a schedule of tokens with exact per-wire
//     delays and entry times, the paper's timing model (Run), and measure
//     the realised c_min, c_max, C_L and C_g (MeasureTrace).
//
//   - Consistency: decide linearizability and sequential consistency of
//     counting executions, compute the paper's inconsistency fractions,
//     watch a stream of operations (NewOnlineMonitor), and audit a
//     recorded history (Audit) for duplicates and for real-time and
//     session order.
//
//   - Theory: the Theorem 4.1 and Table 1 predicates that separate SC
//     from LIN (SufficientSCLocal, NecessaryLinInfluence,
//     DistinguishingTiming), the adversarial wave schedules of
//     Proposition 5.3 and Theorem 5.11, and an experiment harness that
//     reports paper-versus-measured for every table and figure
//     (RunAllExperiments).
//
//   - Runtime: a genuinely concurrent (goroutines + atomics) shared-memory
//     implementation of any constructed network (Compile), with
//     fetch-and-increment and mutex baselines, HSW96-style waiting for
//     linearizability, a Workload that records every increment for
//     Audit, and the message-passing form (StartMessagePassing) with its
//     typed failures ErrTimeout and ErrClosed.
//
//   - Observability and rendering: a lock-free telemetry collector, ASCII
//     drawings of networks, traffic heatmaps and time-space diagrams, and
//     the queueing model of contention (SimulateContention).
//
//   - Serving (serve.go): the compiled network as a TCP/UDP service with a
//     per-request SC or LIN mode (NewServer, DialCounter).
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
	// Layout is rendering metadata for line-built networks.
	Layout = network.Layout
	// Endpoint identifies a port on a source, balancer or sink.
	Endpoint = network.Endpoint
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
	// Figure2 builds the paper's Figure 2 example network.
	Figure2 = construct.Figure2
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
	// NewState returns a network's initial execution state.
	NewState = network.NewState
	// VerifyCounting checks the counting property under random interleaving.
	VerifyCounting = network.VerifyCounting
)

// Timed-execution layer (package sim).
type (
	// TokenSpec describes one token of a timed schedule.
	TokenSpec = sim.TokenSpec
	// Trace is a completed timed execution.
	Trace = sim.Trace
)

var (
	// Run executes a timed schedule on a uniform network.
	Run = sim.Run
	// MeasureTrace computes the realised timing parameters of a trace.
	MeasureTrace = sim.Measure
	// ConstantDelay gives every wire segment of a token the same delay.
	ConstantDelay = sim.ConstantDelay
)

// Consistency layer (package consistency).
type (
	// Fractions are the paper's inconsistency fractions.
	Fractions = consistency.Fractions
	// AuditRecord is one completed operation as its caller saw it.
	AuditRecord = consistency.Record
)

var (
	// Linearizable and SequentiallyConsistent decide the two conditions.
	Linearizable           = consistency.Linearizable
	SequentiallyConsistent = consistency.SequentiallyConsistent
	// WitnessNonSequentiallyConsistent extracts a concrete violating pair.
	WitnessNonSequentiallyConsistent = consistency.WitnessNonSequentiallyConsistent
	// Audit checks a history of records against the counter's contract:
	// duplicates, values out of range, and real-time and session order
	// per mode.
	Audit = consistency.Audit
	// NewOnlineMonitor starts a streaming consistency monitor.
	NewOnlineMonitor = consistency.NewOnline
)

// Structural-analysis layer (package topology).
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
)

var (
	// Table 1 / Theorem 4.1 predicates.
	NecessaryLinInfluence = core.NecessaryLinInfluence
	SufficientSCLocal     = core.SufficientSCLocal
	DistinguishingTiming  = core.DistinguishingTiming
	// Adversarial wave schedules from the proofs.
	Theorem511Waves    = core.Theorem511Waves
	Proposition53Waves = core.Proposition53Waves
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

// StartMessagePassing spins up the message-passing form of a wiring spec
// (package msgnet): balancers as goroutine actors, wires as channels —
// the other implementation style Section 2.3 says the timing model
// captures.
var StartMessagePassing = msgnet.Start

// ErrClosed and ErrTimeout are the typed failures of the context-aware
// counting API (IncCtx).
var (
	ErrClosed  = fault.ErrClosed
	ErrTimeout = fault.ErrTimeout
)

// Telemetry layer (package telemetry): lock-free per-balancer, per-wire
// and per-sink traffic counts and an Inc latency histogram. Attach a
// collector to a compiled network with SetObserver; the hook is
// zero-cost when absent.
var (
	// NewTelemetryCollectorFor builds a collector sized for a network.
	NewTelemetryCollectorFor = telemetry.NewCollectorFor
	// Heatmap renders per-balancer traffic over the network's layers.
	Heatmap = telemetry.Heatmap
)

// Contention model (package perfsim) — the queueing substitute for a
// multiprocessor testbed; see DESIGN.md's substitution table.
type (
	// PerfConfig parameterises one queueing-model run.
	PerfConfig = perfsim.Config
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
)
