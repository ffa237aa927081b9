// Package frontier is a Go implementation of Frontier Sampling — the
// m-dimensional random walk of Ribeiro & Towsley, "Estimating and
// Sampling Graphs with Multidimensional Random Walks" (IMC 2010) — and
// of the full apparatus around it: baseline samplers, asymptotically
// unbiased estimators, synthetic graph generators, a query-cost crawl
// model, graph I/O, an HTTP graph-crawling stack, and an experiment
// harness that regenerates every table and figure of the paper.
//
// This file is the public facade: it re-exports the library types and
// constructors that the examples and root tests use, plus every type,
// constant and error their signatures need, so that applications can
// depend on the single import "frontier". The implementation lives in
// the internal packages (internal/core, internal/graph,
// internal/estimate, ...), one per subsystem; see DESIGN.md for the
// system inventory.
//
// # Quick start
//
//	g := frontier.BarabasiAlbert(frontier.NewRand(1), 10000, 3)
//	sess := frontier.NewSession(g, 1000, frontier.UnitCosts(), frontier.NewRand(2))
//	est := frontier.NewDegreeDist(g, frontier.SymDeg)
//	fs := &frontier.FrontierSampler{M: 64}
//	if err := fs.Run(sess, est.Observe); err != nil { ... }
//	theta := est.Theta() // estimated degree distribution
//
// See examples/ for complete programs.
package frontier

import (
	"context"
	"io"
	"log/slog"
	"time"

	"frontier/internal/core"
	"frontier/internal/crawl"
	"frontier/internal/estimate"
	"frontier/internal/gen"
	"frontier/internal/graph"
	"frontier/internal/graphio"
	"frontier/internal/jobs"
	"frontier/internal/live"
	"frontier/internal/netgraph"
	"frontier/internal/obs"
	"frontier/internal/stats"
	"frontier/internal/sweep"
	"frontier/internal/walkstats"
	"frontier/internal/xrand"
)

// Graph substrate (internal/graph).
type (
	// Graph is an immutable labeled directed graph plus its symmetric
	// counterpart; all walks run on the symmetric view.
	Graph = graph.Graph
	// Edge is a directed edge.
	Edge = graph.Edge
	// GroupLabels assigns special-interest group labels to vertices.
	GroupLabels = graph.GroupLabels
	// DegreeKind selects in-, out- or symmetric degree.
	DegreeKind = graph.DegreeKind
	// Summary is a Table-1 style dataset description.
	Summary = graph.Summary
)

// Degree kinds.
const (
	InDeg  = graph.InDeg
	OutDeg = graph.OutDeg
	SymDeg = graph.SymDeg
)

// CCDF converts a density into its complementary CDF.
func CCDF(theta []float64) []float64 { return graph.CCDF(theta) }

// Randomness (internal/xrand).
type (
	// Rand is the deterministic PRNG used throughout the library.
	Rand = xrand.Rand
)

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// Crawl model (internal/crawl).
type (
	// Session mediates budgeted graph access for one sampling run.
	Session = crawl.Session
	// SessionCheckpoint is a session's serializable mid-run state
	// (budget, cost model, stats, RNG), as Session.Checkpoint returns it.
	SessionCheckpoint = crawl.SessionCheckpoint
	// CostModel prices each query type (steps, vertex and edge queries,
	// hit ratios).
	CostModel = crawl.CostModel
	// Source is the minimal neighborhood-query interface walks need.
	Source = crawl.Source
	// IndexedSource is the optional contiguous-adjacency (CSR) extension
	// of Source that the allocation-free batched sampler loops walk
	// (implemented by Graph).
	IndexedSource = crawl.IndexedSource
	// CrawlStats counts what a session actually did.
	CrawlStats = crawl.Stats
)

// ErrBudgetExhausted is returned when an operation would exceed the
// session budget.
var ErrBudgetExhausted = crawl.ErrBudgetExhausted

// UnitCosts returns the paper's default cost accounting.
func UnitCosts() CostModel { return crawl.UnitCosts() }

// NewSession creates a session over src with the given budget and cost
// model.
func NewSession(src Source, budget float64, model CostModel, rng *Rand) *Session {
	return crawl.NewSession(src, budget, model, rng)
}

// NewSessionContext creates a session that cancels cooperatively with
// ctx: every budget charge checks it, so a running sampler unwinds at
// its next query.
func NewSessionContext(ctx context.Context, src Source, budget float64, model CostModel, rng *Rand) *Session {
	return crawl.NewSessionContext(ctx, src, budget, model, rng)
}

// Samplers (internal/core — the paper's contribution and baselines).
type (
	// FrontierSampler is Algorithm 1: the m-dimensional random walk.
	FrontierSampler = core.FrontierSampler
	// DistributedFS is the coordination-free variant (Theorem 5.5).
	DistributedFS = core.DistributedFS
	// SingleRW is the classic single random walker.
	SingleRW = core.SingleRW
	// MultipleRW runs m independent walkers splitting the budget.
	MultipleRW = core.MultipleRW
	// ParallelDFS runs the distributed variant with one goroutine per
	// walker — zero coordination, as Section 5.3 promises.
	ParallelDFS = core.ParallelDFS
	// BurnIn wraps a sampler and discards its first W samples.
	BurnIn = core.BurnIn
	// MetropolisRW samples vertices uniformly (comparator).
	MetropolisRW = core.MetropolisRW
	// RandomVertexSampler draws uniform vertices with replacement.
	RandomVertexSampler = core.RandomVertexSampler
	// RandomEdgeSampler draws uniform edges with replacement.
	RandomEdgeSampler = core.RandomEdgeSampler
	// EdgeSampler is the interface all edge-emitting samplers satisfy.
	EdgeSampler = core.EdgeSampler
	// Resumable is an EdgeSampler whose run can be snapshotted at a step
	// boundary and continued byte-identically (FrontierSampler,
	// DistributedFS, SingleRW and MultipleRW implement it).
	Resumable = core.Resumable
	// Observation is one weighted sample: an edge or vertex observation
	// with the importance weight that maps it back to the uniform-vertex
	// measure — the unified currency of the sampler runtime.
	Observation = core.Observation
	// ObservationFunc receives weighted observations.
	ObservationFunc = core.ObsFunc
	// BatchObservationFunc receives weighted observations in pooled
	// slabs — the allocation-free hot-path surface.
	// Consumers must not retain a slab (or any subslice) past the
	// callback; it is recycled the moment the callback returns.
	BatchObservationFunc = core.BatchObsFunc
	// Selection names a Frontier Sampling walker-selection algorithm
	// (SelectAuto resolves linear vs Fenwick from M at the measured
	// crossover).
	Selection = core.Selection
	// ObservationSampler is the weighted-observation sampling process
	// every job method implements: a resumable run emitting
	// Observations (all eight built-in methods implement it).
	ObservationSampler = core.ObservationSampler
	// WalkerTracker is implemented by samplers that report which walker
	// emitted the most recent observation — what feeds the live
	// convergence monitor's per-walker chains (all built-in samplers
	// implement it).
	WalkerTracker = core.WalkerTracker
	// VertexSampler is the interface vertex-emitting samplers satisfy.
	VertexSampler = core.VertexSampler
	// Seeder chooses initial walker positions.
	Seeder = core.Seeder
	// StationarySeeder seeds walkers proportionally to degree.
	StationarySeeder = core.StationarySeeder
	// FixedSeeder seeds walkers at predetermined vertices.
	FixedSeeder = core.FixedSeeder
	// EdgeFunc receives sampled edges.
	EdgeFunc = core.EdgeFunc
	// VertexFunc receives sampled vertices.
	VertexFunc = core.VertexFunc
)

// Walker-selection algorithms for FrontierSampler.Selection.
const (
	// SelectAuto resolves adaptively from M: linear scan for small
	// frontiers, Fenwick tree above the measured crossover.
	SelectAuto = core.SelectAuto
	// SelectFenwick pins the O(log M) Fenwick-tree selection.
	SelectFenwick = core.SelectFenwick
	// SelectLinear pins the O(M) linear-scan selection.
	SelectLinear = core.SelectLinear
)

// NewStationarySeeder precomputes degree-proportional seeding for src.
func NewStationarySeeder(src Source) (*StationarySeeder, error) {
	return core.NewStationarySeeder(src)
}

// Estimators (internal/estimate).
type (
	// DegreeDist estimates degree distributions from walk samples.
	DegreeDist = estimate.DegreeDist
	// GroupDensity estimates group densities from walk samples.
	GroupDensity = estimate.GroupDensity
	// Assortativity estimates the assortative mixing coefficient.
	Assortativity = estimate.Assortativity
	// Clustering estimates the global clustering coefficient.
	Clustering = estimate.Clustering
	// ScalarDensity estimates the fraction of vertices satisfying a
	// predicate.
	ScalarDensity = estimate.ScalarDensity
	// AvgDegree estimates the average degree.
	AvgDegree = estimate.AvgDegree
	// View provides the vertex metadata estimators need.
	View = estimate.View
	// EdgeView adds the edge-level queries some estimators need.
	EdgeView = estimate.EdgeView
)

// NewDegreeDist creates a walk-sample degree-distribution estimator.
func NewDegreeDist(view View, kind DegreeKind) *DegreeDist {
	return estimate.NewDegreeDist(view, kind)
}

// NewGroupDensity creates a walk-sample group-density estimator.
func NewGroupDensity(view View, labels *GroupLabels) *GroupDensity {
	return estimate.NewGroupDensity(view, labels)
}

// NewAssortativity creates an assortative-mixing estimator.
func NewAssortativity(view EdgeView, directed bool) *Assortativity {
	return estimate.NewAssortativity(view, directed)
}

// NewClustering creates a global clustering coefficient estimator.
func NewClustering(view EdgeView) *Clustering {
	return estimate.NewClustering(view)
}

// NewScalarDensity creates a predicate-density estimator.
func NewScalarDensity(view View, pred func(v int) bool) *ScalarDensity {
	return estimate.NewScalarDensity(view, pred)
}

// NewAvgDegree creates an average-degree estimator.
func NewAvgDegree(view View) *AvgDegree {
	return estimate.NewAvgDegree(view)
}

// Generators (internal/gen).
type (
	// Dataset bundles a named graph with optional group labels.
	Dataset = gen.Dataset
	// Scale multiplies dataset sizes.
	Scale = gen.Scale
)

// BarabasiAlbert generates an undirected preferential-attachment graph.
func BarabasiAlbert(r *Rand, n, m int) *Graph { return gen.BarabasiAlbert(r, n, m) }

// ErdosRenyiGNM generates a uniform random graph with n vertices and m
// edges.
func ErdosRenyiGNM(r *Rand, n, m int, directed bool) *Graph {
	return gen.ErdosRenyiGNM(r, n, m, directed)
}

// DirectedConfigModel generates a power-law directed graph.
func DirectedConfigModel(r *Rand, n int, alpha float64, kmin, kmax int) *Graph {
	return gen.DirectedConfigModel(r, n, alpha, kmin, kmax)
}

// GAB builds the paper's two-BA stress graph (Section 6.1).
func GAB(r *Rand, nEach int) *Graph { return gen.GAB(r, nEach) }

// StochasticBlockModel generates k equal communities with within/cross
// edge probabilities pIn and pOut.
func StochasticBlockModel(r *Rand, n, k int, pIn, pOut float64) *Graph {
	return gen.StochasticBlockModel(r, n, k, pIn, pOut)
}

// PlantedPartition is the heterogeneous block model (per-community
// densities).
func PlantedPartition(r *Rand, n int, pIns []float64, pOut float64) *Graph {
	return gen.PlantedPartition(r, n, pIns, pOut)
}

// WattsStrogatz generates a small-world ring lattice with rewiring
// probability beta.
func WattsStrogatz(r *Rand, n, k int, beta float64) *Graph {
	return gen.WattsStrogatz(r, n, k, beta)
}

// DatasetByName builds one of the synthetic stand-in datasets
// ("flickr", "lj", "youtube", "internet-rlt", "hepth", "gab").
func DatasetByName(name string, r *Rand, scale Scale) (Dataset, error) {
	return gen.ByName(name, r, scale)
}

// PlantGroups assigns Zipf-popularity, degree-correlated group labels.
func PlantGroups(r *Rand, g *Graph, numGroups, totalMemberships int, s float64) *GroupLabels {
	return gen.PlantGroups(r, g, numGroups, totalMemberships, s)
}

// Graph I/O (internal/graphio).

// SaveGraph writes g to path, picking the format by extension: binary
// for ".fgrb", a mappable CSR segment for ".fcsr", text otherwise.
func SaveGraph(path string, g *Graph) error { return graphio.SaveFile(path, g) }

// LoadGraph reads a graph from path, picking the format by extension
// as in SaveGraph (.fcsr segments are heap-parsed and fully validated;
// OpenGraphSegment is the zero-copy alternative).
func LoadGraph(path string) (*Graph, error) { return graphio.LoadFile(path) }

// Binary CSR graph segments (.fcsr): checksummed, mappable files
// holding a graph's CSR arrays (and optional group labels) verbatim,
// so opening one is O(header + page-in) instead of O(parse).
type (
	// GraphSegment is an opened .fcsr segment: the graph (and labels,
	// when embedded) reading directly from the memory-mapped file, plus
	// the header metadata. Close unmaps; the graph must not be used
	// after.
	GraphSegment = graphio.FCSRFile
	// GraphSegmentInfo is the .fcsr header metadata: sizes and layout
	// facts readable without materializing the graph.
	GraphSegmentInfo = graphio.FCSRInfo
)

// OpenGraphSegment memory-maps the .fcsr segment at path and returns
// its graph zero-copy: the CSR arrays alias the mapping, so open cost
// is O(offset-array validation) and resident memory is only the pages
// the walk touches. Sampling over the mapped graph draws byte-identical
// sequences to the same graph on the heap.
func OpenGraphSegment(path string) (*GraphSegment, error) { return graphio.OpenFCSR(path) }

// Networked crawling (internal/netgraph).
type (
	// GraphServer serves a catalog of graphs over HTTP (see cmd/graphd).
	GraphServer = netgraph.Server
	// GraphCatalog is a concurrent registry of named hosted graphs; it
	// implements JobResolver so one job worker pool can serve every
	// hosted graph, pinning a graph while jobs run on it.
	GraphCatalog = netgraph.Catalog
	// GraphInfo describes one hosted graph (the GET /v1/graphs entry).
	GraphInfo = netgraph.GraphInfo
	// GraphServerOption configures a GraphServer.
	GraphServerOption = netgraph.ServerOption
	// GraphClient crawls a remote graph; it implements Source and
	// EdgeView so samplers and estimators run against it unmodified,
	// and batches the neighborhood prefetches walks advise. Its vertex cache is a bounded LRU and concurrent
	// fetches of one vertex are deduplicated.
	GraphClient = netgraph.Client
	// GraphClientOption configures a GraphClient.
	GraphClientOption = netgraph.Option
	// GraphServerStats are the counters served at GET /v1/stats.
	GraphServerStats = netgraph.ServerStats
	// GraphHealth is the GET /healthz liveness summary.
	GraphHealth = netgraph.Health
)

// Catalog errors, mapped to HTTP statuses by the server (404, 409).
var (
	// ErrUnknownGraph reports a name the catalog does not host.
	ErrUnknownGraph = netgraph.ErrUnknownGraph
	// ErrGraphBusy reports an eviction refused while jobs pin the graph.
	ErrGraphBusy = netgraph.ErrGraphBusy
	// ErrDuplicateGraph reports an Add under an already-hosted name.
	ErrDuplicateGraph = netgraph.ErrDuplicateGraph
)

// NewGraphCatalog returns an empty catalog of named graphs; the first
// graph added becomes the default for unqualified requests.
func NewGraphCatalog() *GraphCatalog { return netgraph.NewCatalog() }

// Sampling-job service (internal/jobs): run many concurrent,
// cancellable, checkpoint-resumable sampling jobs over one shared graph.
// Mount it into a GraphServer with WithServerJobs; drive it remotely
// through GraphClient.SubmitJob / Job / CancelJob / WaitJob.
type (
	// JobManager owns the job table, bounded queue and worker pool.
	JobManager = jobs.Manager
	// JobSpec describes one sampling job (method, walkers, budget, seed,
	// estimate, checkpoint interval).
	JobSpec = jobs.Spec
	// JobStatus is a job's externally visible snapshot.
	JobStatus = jobs.Status
	// JobState is a job's lifecycle state.
	JobState = jobs.State
	// JobOption configures a JobManager.
	JobOption = jobs.Option
	// JobResolver maps a JobSpec's Graph name to its sampling source
	// (GraphCatalog implements it).
	JobResolver = jobs.Resolver
	// JobMethod describes one registered sampling method: builder,
	// required source facets and emitted observation kinds.
	JobMethod = jobs.Method
	// JobMethodRegistry is a named catalog of sampling methods ("fs",
	// "dfs", "single", "multiple", "mhrw", "rv", "re", "jump", plus
	// custom registrations).
	JobMethodRegistry = jobs.MethodRegistry
)

// DefaultJobMethods returns the process-wide method registry holding
// the paper's comparison set of sampling methods.
func DefaultJobMethods() *JobMethodRegistry { return jobs.DefaultMethods() }

// Job lifecycle states.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobPaused    = jobs.StatePaused
	JobDone      = jobs.StateDone
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// JobStopBudget is the StopReason of a done job that ran its full
// budget (no stop rule, or one that never fired).
const JobStopBudget = jobs.StopReasonBudget

// Live estimation subsystem (internal/live): attach registered
// streaming estimators, an online convergence monitor (CI half-width,
// effective sample size, Gelman-Rubin across walkers) and adaptive
// stop rules to any sampling run. Jobs carry one automatically; local
// runs drive a LiveRuntime from the sampler's emit callback.
type (
	// LiveEstimator is one streaming estimator built by an
	// EstimatorRegistry: a moment kernel plus cumulative sufficient
	// statistics, serializable for checkpoints.
	LiveEstimator = live.Estimator
	// EstimatorRegistry is a named catalog of estimator builders
	// ("avgdegree", "clustering", "assortativity", "degreedist",
	// "groupdensity", plus custom registrations).
	EstimatorRegistry = live.Registry
	// EstimatorBuilder constructs an estimator bound to a source.
	EstimatorBuilder = live.Builder
	// ConvergenceMonitor attaches batch-means confidence intervals and
	// walkstats mixing diagnostics to an estimator's stream.
	ConvergenceMonitor = live.Monitor
	// MonitorConfig sizes a ConvergenceMonitor's bounded state.
	MonitorConfig = live.MonitorConfig
	// LiveRuntime ties estimator + monitor + stop rule into the unit a
	// sampling run drives; it serializes whole for lossless resume.
	LiveRuntime = live.Runtime
	// StopRule is a parsed adaptive-stopping condition (nil =
	// budget-only).
	StopRule = live.StopRule
	// StopMetric names a monitor quantity a StopRule thresholds.
	StopMetric = live.Metric
	// EstimateReport is a point-in-time view of a live estimation:
	// value, CI, diagnostics, stop verdict.
	EstimateReport = live.Report
	// EstimateInterval is a confidence interval around an estimate.
	EstimateInterval = live.Interval
	// EstimateDiagnostics are a monitor's convergence diagnostics.
	EstimateDiagnostics = live.Diagnostics
	// EstimateVector is the vector-valued part of an estimate (degree
	// CCDF, group densities).
	EstimateVector = live.VectorResult
)

// Stop-rule metrics.
const (
	StopMetricCIHalfWidth = live.MetricCIHalfWidth
	StopMetricCIRel       = live.MetricCIRel
	StopMetricESS         = live.MetricESS
	StopMetricRHat        = live.MetricRHat
)

// DefaultEstimators returns the process-wide estimator registry
// holding the built-in live estimators.
func DefaultEstimators() *EstimatorRegistry { return live.Default() }

// ParseStopRule parses an adaptive-stopping rule such as
// "ci_halfwidth<=0.01", "ci_rel<=0.005", "ess>=5000" or "rhat<=1.05".
// The empty string parses to nil: budget-only.
func ParseStopRule(s string) (*StopRule, error) { return live.ParseStopRule(s) }

// NewConvergenceMonitor creates a convergence monitor (zero config
// fields take defaults).
func NewConvergenceMonitor(cfg MonitorConfig) *ConvergenceMonitor { return live.NewMonitor(cfg) }

// NewLiveRuntime binds an estimator and monitor with an optional stop
// rule; drive it with Observe from a sampler's emit callback.
func NewLiveRuntime(est *LiveEstimator, mon *ConvergenceMonitor, rule *StopRule) *LiveRuntime {
	return live.NewRuntime(est, mon, rule)
}

// NewJobManager creates a sampling-job manager over src and starts its
// worker pool. Stop it with (*JobManager).Stop, which checkpoints
// running jobs.
func NewJobManager(src Source, opts ...JobOption) (*JobManager, error) {
	return jobs.NewManager(src, opts...)
}

// WithJobWorkers sizes the job worker pool (default 4).
func WithJobWorkers(n int) JobOption { return jobs.WithWorkers(n) }

// WithJobResolver routes each job's Graph name through r — typically a
// GraphCatalog — so one worker pool serves many hosted graphs.
func WithJobResolver(r JobResolver) JobOption { return jobs.WithResolver(r) }

// WithServerJobs mounts the job endpoints (POST /v1/jobs et al.) backed
// by m into a GraphServer.
func WithServerJobs(m *JobManager) GraphServerOption { return netgraph.WithJobs(m) }

// NewGraphServer creates an HTTP handler serving g (groups may be nil).
func NewGraphServer(name string, g *Graph, groups *GroupLabels, opts ...GraphServerOption) *GraphServer {
	return netgraph.NewServer(name, g, groups, opts...)
}

// WithServerLatency injects a fixed per-request latency, modeling a slow
// OSN API.
func WithServerLatency(d time.Duration) GraphServerOption { return netgraph.WithLatency(d) }

// DialGraph connects to a graph served at baseURL.
func DialGraph(baseURL string, opts ...GraphClientOption) (*GraphClient, error) {
	return netgraph.Dial(baseURL, nil, opts...)
}

// WithBatchSize sets the client's prefetch batch size.
func WithBatchSize(n int) GraphClientOption { return netgraph.WithBatchSize(n) }

// Error metrics (internal/stats).
type (
	// ScalarError accumulates Monte Carlo estimates of a scalar with
	// known truth (bias, NMSE).
	ScalarError = stats.ScalarError
	// VectorError is the per-index variant (NMSE/CNMSE curves).
	VectorError = stats.VectorError
	// Welford is a numerically stable running mean/variance.
	Welford = stats.Welford
)

// NewScalarError creates a scalar error accumulator.
func NewScalarError(truth float64) *ScalarError { return stats.NewScalarError(truth) }

// NewVectorError creates a vector error accumulator.
func NewVectorError(truth []float64) *VectorError { return stats.NewVectorError(truth) }

// Analytical error model of Section 3 (equations (3) and (4)).
type (
	// DegreeNMSEModel predicts NMSE for random edge and vertex sampling.
	DegreeNMSEModel = estimate.DegreeNMSEModel
)

// NewDegreeNMSEModel builds the Section-3 error model for g.
func NewDegreeNMSEModel(g *Graph, kind DegreeKind) *DegreeNMSEModel {
	return estimate.NewDegreeNMSEModel(g, kind)
}

// PredictedEdgeNMSE is equation (3).
func PredictedEdgeNMSE(pi, b float64) float64 { return estimate.PredictedEdgeNMSE(pi, b) }

// PredictedVertexNMSE is equation (4).
func PredictedVertexNMSE(theta, b float64) float64 { return estimate.PredictedVertexNMSE(theta, b) }

// Convergence diagnostics (internal/walkstats).

// GelmanRubin computes the potential scale reduction factor R̂ over
// several chains.
func GelmanRubin(chains [][]float64) (float64, error) { return walkstats.GelmanRubin(chains) }

// Geweke computes the stationarity z-score over early/late windows.
func Geweke(xs []float64, firstFrac, lastFrac float64) (float64, error) {
	return walkstats.Geweke(xs, firstFrac, lastFrac)
}

// EffectiveSampleSize estimates the independent-sample worth of a
// correlated walk series.
func EffectiveSampleSize(xs []float64) (float64, error) {
	return walkstats.EffectiveSampleSize(xs)
}

// Autocorrelation returns lag-k autocorrelations for k = 0..maxLag.
func Autocorrelation(xs []float64, maxLag int) ([]float64, error) {
	return walkstats.Autocorrelation(xs, maxLag)
}

// Observability (internal/obs): structured logging, span timelines and
// Prometheus latency histograms, wired through the graph server, client
// and job manager.
type (
	// TraceEvent is one entry in a span timeline.
	TraceEvent = obs.Event
	// JobTrace is a job's span timeline as served at
	// GET /v1/jobs/{id}/trace: lifecycle transitions, checkpoints and
	// the crawl retry/hedge/breaker events the job's source emitted.
	JobTrace = jobs.Trace
	// LatencyHistogramVec is a fixed-bucket Prometheus-style latency
	// histogram partitioned by one label.
	LatencyHistogramVec = obs.HistogramVec
)

// NewLogger builds a structured logger writing to w at the given
// level; format selects "json" or "text" (default) encoding.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// Paper-figure sweep service (internal/sweep): a deterministic DAG
// executor that reproduces a paper artifact (fig5, table2, ...) as a
// sweep of sampling jobs — method × run job nodes, per-method
// aggregation nodes, one figure node writing the JSON/CSV artifact and
// evaluating the paper's shape checks. Sweeps persist per-node
// manifests and resume after a restart without re-running done nodes,
// reproducing byte-identical artifacts. Mount into a GraphServer with
// WithServerSweeps; drive remotely through GraphClient.SubmitSweep /
// FollowSweep / SweepArtifact. See docs/EXPERIMENTS.md for the
// figure↔artifact↔endpoint map.
type (
	// SweepManager owns the sweep table, DAG scheduler and manifests.
	SweepManager = sweep.Manager
	// SweepSpec names the artifact to reproduce ("fig5", ..., or "all")
	// plus graph, seed, runs, parallelism and failure policy.
	SweepSpec = sweep.Spec
	// SweepStatus is a sweep's externally visible snapshot: state,
	// per-node statuses, artifacts and shape-check results.
	SweepStatus = sweep.Status
	// SweepState is a sweep's lifecycle state.
	SweepState = sweep.State
	// SweepNodeState is a DAG node's lifecycle state.
	SweepNodeState = sweep.NodeState
	// SweepNodeStatus is one DAG node's externally visible snapshot.
	SweepNodeStatus = sweep.NodeStatus
	// SweepArtifactInfo describes one written figure artifact (name,
	// size, digest).
	SweepArtifactInfo = sweep.ArtifactInfo
	// SweepCheckResult is one evaluated paper shape check.
	SweepCheckResult = sweep.CheckResult
	// SweepOption configures a SweepManager.
	SweepOption = sweep.Option
	// SweepGraphSource resolves a SweepSpec's Graph name to the graph
	// and labels the sweep's truth vectors are computed from
	// (GraphCatalog implements it).
	SweepGraphSource = sweep.GraphSource
	// SweepTrace is a sweep's span timeline as served at
	// GET /v1/sweeps/{id}/trace.
	SweepTrace = sweep.Trace
)

// Sweep lifecycle states.
const (
	SweepPending   = sweep.StatePending
	SweepRunning   = sweep.StateRunning
	SweepDone      = sweep.StateDone
	SweepFailed    = sweep.StateFailed
	SweepCancelled = sweep.StateCancelled
)

// Sweep DAG node states.
const (
	SweepNodePending = sweep.NodePending
	SweepNodeRunning = sweep.NodeRunning
	SweepNodeDone    = sweep.NodeDone
	SweepNodeFailed  = sweep.NodeFailed
	SweepNodeSkipped = sweep.NodeSkipped
)

// Sweep failure policies for SweepSpec.OnError.
const (
	// SweepFailFast cancels in-flight siblings on the first node
	// failure (the default).
	SweepFailFast = sweep.FailFast
	// SweepContinue lets siblings finish; only dependents of the failed
	// node are skipped.
	SweepContinue = sweep.Continue
)

// SweepArtifacts returns the artifact ids the sweep service can
// reproduce, in paper order.
func SweepArtifacts() []string { return sweep.Supported() }

// NewSweepManager creates a sweep manager executing its job nodes on
// jm and resolving graphs through src. Stop it with
// (*SweepManager).Stop — before stopping jm — which freezes running
// sweeps resumably.
func NewSweepManager(jm *JobManager, src SweepGraphSource, opts ...SweepOption) (*SweepManager, error) {
	return sweep.NewManager(jm, src, opts...)
}

// WithSweepDir persists per-sweep manifests under dir so sweeps
// survive a restart and resume without re-running done nodes.
func WithSweepDir(dir string) SweepOption { return sweep.WithDir(dir) }

// WithSweepArtifactDir writes figure artifacts under dir (default:
// a sibling "artifacts" directory of the manifest dir).
func WithSweepArtifactDir(dir string) SweepOption { return sweep.WithArtifactDir(dir) }

// WithSweepParallel bounds how many job nodes run concurrently per
// sweep (default: the job manager's worker count).
func WithSweepParallel(n int) SweepOption { return sweep.WithParallel(n) }

// WithServerSweeps mounts the sweep endpoints (POST /v1/sweeps et al.)
// backed by m into a GraphServer.
func WithServerSweeps(m *SweepManager) GraphServerOption { return netgraph.WithSweeps(m) }
