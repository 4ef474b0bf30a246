// Package reconvirt is a Go implementation of the virtualization framework
// for reconfigurable hardware in distributed systems described in
// "On Virtualization of Reconfigurable Hardware in Distributed Systems"
// (Nadeem, Nadeem & Wong, ICPP 2012), together with every substrate the
// paper depends on: the node and task models, the Resource Management
// System, the Job Submission System, the scheduling strategies, the FPGA
// fabric and soft-core models, the Quipu-style area predictor, the
// gprof-style profiler, the ClustalW aligner of the case study, and the
// DReAMSim-equivalent discrete-event grid simulator.
//
// This file is the public facade: the names most programs need, re-exported
// from the internal packages with constructors for the common flows. See
// the examples/ directory for runnable programs and DESIGN.md for the full
// system inventory.
package reconvirt

import (
	"context"
	"io"

	"repro/internal/bio"
	"repro/internal/capability"
	"repro/internal/casestudy"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/profiler"
	"repro/internal/quipu"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/softcore"
	"repro/internal/stream"
	"repro/internal/task"
)

// Core framework types (the paper's contribution).
type (
	// VirtualGrid is the virtual organization: the hardware-independent
	// layer between application developers and GPP/RPE resources.
	VirtualGrid = core.VirtualGrid
	// Level is a virtualization/abstraction level (Fig. 2).
	Level = core.Level
	// Scenario is a use-case scenario (Fig. 1, Section III).
	Scenario = pe.Scenario
)

// Abstraction levels, most abstract first.
const (
	LevelGrid     = core.LevelGrid
	LevelSoftcore = core.LevelSoftcore
	LevelFabric   = core.LevelFabric
	LevelDevice   = core.LevelDevice
)

// Use-case scenarios.
const (
	SoftwareOnly     = pe.SoftwareOnly
	PredeterminedHW  = pe.PredeterminedHW
	UserDefinedHW    = pe.UserDefinedHW
	DeviceSpecificHW = pe.DeviceSpecificHW
)

// Node and capability model (Eq. 1, Table I).
type (
	// Node is a grid computing node holding GPPs and RPEs.
	Node = node.Node
	// Element is one processing element installed in a node.
	Element = node.Element
	// GPPCaps, FPGACaps, SoftcoreCaps, GPUCaps are Table I parameter sets.
	GPPCaps      = capability.GPPCaps
	FPGACaps     = capability.FPGACaps
	SoftcoreCaps = capability.SoftcoreCaps
	GPUCaps      = capability.GPUCaps
	// Requirements is a conjunction of ExecReq capability predicates.
	Requirements = capability.Requirements
)

// Task model (Eq. 2/3, Figs. 4, 7, 8).
type (
	// Task is the paper's task tuple.
	Task = task.Task
	// ExecReq is a task's execution requirement.
	ExecReq = task.ExecReq
	// Graph is an application task graph.
	Graph = task.Graph
	// Program is a parsed Seq/Par application expression.
	Program = task.Program
)

// Grid services (Figs. 3, 9).
type (
	// Registry is the RMS node registry.
	Registry = rms.Registry
	// Matchmaker maps ExecReqs to candidate processing elements.
	Matchmaker = rms.Matchmaker
	// Candidate is one feasible task↔element mapping (Table II rows).
	Candidate = rms.Candidate
	// Lease binds a task to an element until released.
	Lease = rms.Lease
	// JSS is the job submission system.
	JSS = jss.JSS
	// QoS are submission service attributes.
	QoS = jss.QoS
	// Submission is one submitted application.
	Submission = jss.Submission
)

// Hardware substrates.
type (
	// Fabric is a live FPGA with configuration state.
	Fabric = fabric.Fabric
	// Device is an FPGA part description.
	Device = fabric.Device
	// Bitstream is a device configuration image.
	Bitstream = fabric.Bitstream
	// Design is an HDL accelerator design.
	Design = hdl.Design
	// Toolchain is a provider's synthesis CAD tool.
	Toolchain = hdl.Toolchain
	// SoftCore is a parameterizable VLIW soft-core (ρ-VEX style).
	SoftCore = softcore.Core
)

// Simulation (the DReAMSim equivalent).
type (
	// Engine is the discrete-event grid simulator.
	Engine = grid.Engine
	// EngineConfig parameterizes a simulation run.
	EngineConfig = grid.Config
	// GridSpec describes simulated grid resources.
	GridSpec = grid.GridSpec
	// WorkloadSpec describes a synthetic many-task workload.
	WorkloadSpec = grid.WorkloadSpec
	// Metrics aggregates one run's outcomes.
	Metrics = grid.Metrics
	// Strategy is a task scheduling strategy.
	Strategy = sched.Strategy
	// ScenarioSpec bundles one scenario run's inputs for RunScenario.
	ScenarioSpec = grid.ScenarioSpec
)

// Event core (the simulator's pending-event set). Both schedulers obey
// the same (Time, Priority, seq) total order, so swapping one for the
// other is a pure performance choice: runs stay bit-identical. Select
// per engine via EngineConfig.Scheduler, or per bare simulator via
// sim.WithScheduler.
type (
	// EventScheduler is the pluggable pending-event set contract.
	EventScheduler = sim.Scheduler
	// HeapQueue is the binary-heap scheduler (O(log n) per operation).
	HeapQueue = sim.HeapQueue
	// WheelQueue is the hierarchical timing-wheel scheduler (amortized
	// O(1) near-future operations; the default).
	WheelQueue = sim.WheelQueue
)

// NewHeapQueue returns an empty binary-heap event scheduler.
func NewHeapQueue() *HeapQueue { return sim.NewHeapQueue() }

// NewWheelQueue returns an empty timing-wheel event scheduler.
func NewWheelQueue() *WheelQueue { return sim.NewWheelQueue() }

// Observability (pluggable trace sinks and timeline metrics). The
// engine emits lifecycle events and periodic gauge samples through any
// TraceSink wired into EngineConfig.Tracer or ScenarioSpec.Sinks; see the
// obs package comment for the full sink contract.
type (
	// TraceSink consumes engine lifecycle events and gauge samples.
	TraceSink = obs.TraceSink
	// TraceEvent is one engine lifecycle event.
	TraceEvent = obs.Event
	// TraceSample is one periodic gauge snapshot (enable via
	// EngineConfig.SampleEverySeconds).
	TraceSample = obs.Sample
	// TraceRecorder retains the full stream in memory for post-hoc
	// analysis: CSV dumps, Gantt charts, differential checks.
	TraceRecorder = obs.Recorder
	// ChromeTrace streams a Chrome trace-event JSON document
	// (Perfetto-loadable); Close finalizes it.
	ChromeTrace = obs.Chrome
	// StreamingCSV streams events as CSV with O(1) memory, byte-identical
	// to TraceRecorder.WriteCSV output.
	StreamingCSV = obs.CSV
	// TimelineSink folds gauge samples into virtual-time series and
	// report tables.
	TimelineSink = obs.Timeline
	// NoopSink discards everything (instrumentation-cost baseline).
	NoopSink = obs.Noop
)

// NewChromeTrace returns a Chrome trace-event sink writing to w.
func NewChromeTrace(w io.Writer) *ChromeTrace { return obs.NewChrome(w) }

// NewStreamingCSV returns a bounded-memory CSV event sink writing to w.
func NewStreamingCSV(w io.Writer) *StreamingCSV { return obs.NewCSV(w) }

// NewTimeline returns an empty timeline sink.
func NewTimeline() *TimelineSink { return obs.NewTimeline() }

// MultiSink fans one engine's stream out to several sinks; nil members
// are dropped.
func MultiSink(sinks ...TraceSink) TraceSink { return obs.Multi(sinks...) }

// Fault injection and recovery (availability experiments).
type (
	// FaultSpec parameterizes deterministic fault injection: node
	// crash/recovery cycles, SEU configuration upsets, and link
	// degradation/partitions, plus the lease TTL and retry policy the
	// recovery machinery uses. Attach one to a ScenarioSpec or SweepPoint.
	FaultSpec = faults.Spec
	// RetryPolicy caps and paces fault-induced task retries.
	RetryPolicy = faults.RetryPolicy
	// FaultEvent is one scheduled fault occurrence.
	FaultEvent = faults.Event
)

// DefaultFaults returns a moderate fault model; adjust rates as needed
// and set HorizonSeconds (or leave it zero to cover the workload).
func DefaultFaults() FaultSpec { return faults.Default() }

// FaultSchedule derives the deterministic fault timeline a spec produces
// for the given nodes — useful for inspecting what a seed will inject.
func FaultSchedule(rng *sim.RNG, spec FaultSpec, nodeIDs []string) ([]FaultEvent, error) {
	return faults.Schedule(rng, spec, nodeIDs)
}

// Parallel experiment sweeps (the DReAMSim evaluation loop).
type (
	// SweepSpec describes a parallel sweep: points × seeds fanned across a
	// bounded worker pool.
	SweepSpec = grid.SweepSpec
	// SweepPoint is one (strategy, config, grid, workload) cell.
	SweepPoint = grid.SweepPoint
	// SweepResult is a completed (or cancelled) sweep.
	SweepResult = grid.SweepResult
	// Replica identifies one point × seed replica.
	Replica = grid.Replica
	// ReplicaResult is one replica's metrics or error.
	ReplicaResult = grid.ReplicaResult
	// PointSummary is a point's mean/stddev/95%-CI aggregate across seeds.
	PointSummary = grid.PointSummary
	// Summary is a mean/stddev/95%-CI condensation of replicated values.
	Summary = sim.Summary
)

// NewVirtualGrid creates an empty virtual organization. Pass a Toolchain
// via Options to enable the user-defined-hardware scenario.
func NewVirtualGrid(opts core.Options) (*VirtualGrid, error) { return core.NewVirtualGrid(opts) }

// GridOptions configure NewVirtualGrid.
type GridOptions = core.Options

// NewNode creates an empty grid node.
func NewNode(id string) (*Node, error) { return node.New(id) }

// NewToolchain creates a provider CAD toolchain for the given families.
func NewToolchain(vendor string, families ...string) (*Toolchain, error) {
	return hdl.NewToolchain(vendor, families...)
}

// LookupIP returns a built-in OpenCores-style library design.
func LookupIP(name string) (*Design, error) { return hdl.LookupIP(name) }

// LookupDevice returns a catalog FPGA part.
func LookupDevice(name string) (Device, error) { return fabric.LookupDevice(name) }

// NewFullBitstream builds a user-supplied full-device bitstream for the
// device-specific-hardware scenario.
func NewFullBitstream(id, design string, dev Device, usedSlices int) *Bitstream {
	return fabric.FullBitstream(id, design, dev, usedSlices)
}

// RVEX returns the ρ-VEX-style soft-core preset.
func RVEX(issueWidth, clusters int) (*SoftCore, error) { return softcore.RVEX(issueWidth, clusters) }

// ParseApp parses a Seq/Par application expression such as
// "App{Seq(T2), Par(T4,T1,T7), Seq(T5,T10)}".
func ParseApp(src string) (*Program, error) { return task.ParseApp(src) }

// NewGraph returns an empty application task graph.
func NewGraph() *Graph { return task.NewGraph() }

// NewMatchmaker builds a matchmaker over a registry. The toolchain may be
// nil (a provider without CAD tools never serves user-defined hardware).
func NewMatchmaker(reg *Registry, tc *Toolchain) (*Matchmaker, error) {
	return rms.NewMatchmaker(reg, tc)
}

// NewEngine wires a simulator around a registry and matchmaker.
func NewEngine(cfg EngineConfig, reg *Registry, mm *Matchmaker) (*Engine, error) {
	return grid.NewEngine(cfg, reg, mm)
}

// DefaultEngineConfig returns the default simulation configuration.
func DefaultEngineConfig() EngineConfig { return grid.DefaultConfig() }

// BuildGrid constructs a registry from a grid spec.
func BuildGrid(spec GridSpec) (*Registry, error) { return grid.BuildGrid(spec) }

// RunScenario builds a grid, generates a workload, and simulates it. The
// context cancels the run mid-simulation; cancelled runs return partial
// metrics together with the context's error.
func RunScenario(ctx context.Context, spec ScenarioSpec) (*Metrics, error) {
	return grid.RunScenario(ctx, spec)
}

// RunSweep fans a sweep's point × seed replicas across a bounded worker
// pool, each replica an independent simulation with a deterministically
// split seed. Cancelling ctx stops the sweep promptly and returns the
// partial result together with ctx's error. See grid.Sweep for the full
// contract.
func RunSweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	return grid.Sweep(ctx, spec)
}

// Strategies returns every built-in scheduling strategy.
func Strategies() []Strategy { return sched.All() }

// StrategyByName returns a built-in strategy by name; unknown names report
// an error wrapping sched.ErrUnknownStrategy.
func StrategyByName(name string) (Strategy, error) { return sched.ByName(name) }

// CaseStudyNodes builds the Section V grid (Fig. 5).
func CaseStudyNodes() (*Registry, error) { return casestudy.BuildNodes() }

// CaseStudyTasks builds the Section V tasks (Fig. 6).
func CaseStudyTasks() ([]*Task, error) { return casestudy.Tasks() }

// TableII regenerates the paper's mapping table.
func TableII() ([]casestudy.TableIIRow, error) { return casestudy.TableII() }

// AlignProteins runs the ClustalW-style pipeline of the case study. Pass a
// profiler from NewProfiler to collect the Fig. 10 kernel profile.
func AlignProteins(seqs []bio.Sequence, prof *profiler.Profiler) (*bio.Result, error) {
	return bio.Align(seqs, prof, bio.DefaultOptions())
}

// NewProfiler returns a gprof-style instrumenting profiler.
func NewProfiler() *profiler.Profiler { return profiler.New() }

// PredictArea runs the Quipu-style predictor on kernel metrics.
func PredictArea(m quipu.Metrics) (quipu.Prediction, error) {
	return quipu.Default().Predict(m)
}

// NewRNG returns the deterministic random generator simulations use.
func NewRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed) }

// Streaming extension (the paper's future work).
type (
	// StreamManager admits continuous dataflows with throughput
	// guarantees onto grid elements.
	StreamManager = stream.Manager
	// StreamSpec describes a streaming session request.
	StreamSpec = stream.Spec
	// StreamSession is an admitted stream holding its reservation.
	StreamSession = stream.Session
)

// NewStreamManager builds a streaming manager over a matchmaker and a
// simulator for session timing.
func NewStreamManager(mm *Matchmaker, s *sim.Simulator) (*StreamManager, error) {
	return stream.NewManager(mm, s)
}

// NewSimulator returns a fresh discrete-event simulator (for callers
// driving streams or custom models directly rather than via Engine).
func NewSimulator() *sim.Simulator { return sim.NewSimulator() }

// FamilyOptions control synthetic protein-family generation for the
// bioinformatics case study.
type FamilyOptions = bio.FamilyOptions

// GenerateProteinFamily produces a synthetic homologous protein family.
func GenerateProteinFamily(rng *sim.RNG, opts FamilyOptions) ([]bio.Sequence, error) {
	return bio.GenerateFamily(rng, opts)
}

// DefaultFamily matches the scale of a BioBench ClustalW input.
func DefaultFamily() FamilyOptions { return bio.DefaultFamily() }

// PairalignMetrics returns the measured software-complexity metrics of the
// ClustalW pairalign kernel (the case study's Quipu input).
func PairalignMetrics() quipu.Metrics { return quipu.PairalignMetrics() }

// MalignMetrics returns the measured metrics of the malign kernel.
func MalignMetrics() quipu.Metrics { return quipu.MalignMetrics() }

// Multi-tenant control plane (the long-running RMS server behind
// cmd/rmsd; see README "Control plane").
type (
	// ControlPlane is the sharded multi-tenant RMS server.
	ControlPlane = controlplane.Server
	// ControlPlaneConfig parameterizes a ControlPlane.
	ControlPlaneConfig = controlplane.Config
	// ServiceTier is an RC3E-style provisioning tier.
	ServiceTier = controlplane.Tier
	// WireRequest and WireResponse are the line-delimited JSON wire
	// protocol messages.
	WireRequest  = controlplane.Request
	WireResponse = controlplane.Response
)

// The RC3E provisioning tiers.
const (
	TierFull        = controlplane.TierFull
	TierVirtualized = controlplane.TierVirtualized
	TierBackground  = controlplane.TierBackground
)

// NewControlPlane starts a control plane; the caller must Shutdown it.
func NewControlPlane(cfg ControlPlaneConfig) (*ControlPlane, error) {
	return controlplane.New(cfg)
}

// DefaultControlPlaneConfig returns a deterministic quota-free
// configuration.
func DefaultControlPlaneConfig() ControlPlaneConfig {
	return controlplane.DefaultConfig()
}

// ErrQuotaExceeded is the typed rejection a submission over its cost
// quota returns (errors.Is-matchable).
var ErrQuotaExceeded = jss.ErrQuotaExceeded
