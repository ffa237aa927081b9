// Package jobs runs many sampling jobs concurrently over one or more
// shared graphs: a bounded worker pool drains a queue of job specs, each
// job drives a resumable sampler (internal/core) through its own
// budgeted, cancellable session (internal/crawl), and every job
// checkpoints its full state — session, sampler, live estimation
// runtime and observation hash — as JSON at step boundaries, so jobs
// survive a process restart and continue byte-identically.
//
// Methods come from a MethodRegistry (name → builder + required source
// facets): the built-in set is the paper's full comparison roster —
// the degree-proportional walk samplers (fs, dfs, single, multiple),
// the uniform-vertex samplers (mhrw, rv), uniform edge sampling (re)
// and the random walk with uniform restarts (jump) — all emitting one
// weighted observation stream (core.Observation), which is what lets
// a single estimation pipeline serve every method.
//
// Estimation is live (internal/live): each job attaches a registered
// estimator plus a convergence monitor to its edge stream, publishing
// estimate reports — value, confidence interval, mixing diagnostics —
// while running. A Spec may carry a StopRule ("ci_halfwidth<=0.01",
// "ess>=5000", "rhat<=1.05"): the job then stops the moment its monitor
// certifies convergence, reporting a done state whose StopReason says
// why, instead of burning the rest of its budget.
//
// A manager samples either a single source (NewManager's src argument)
// or, with WithResolver, any of several named graphs: each Spec carries
// a Graph name, the Resolver maps it to a source, and the release
// callback it returns pins the graph for exactly as long as the job is
// running on a worker — which is how the netgraph catalog refuses to
// evict a graph mid-run.
//
// This is the regime the paper's cost model abstracts: crawling a
// rate-limited OSN API is slow, gets interrupted, and is multiplexed
// across many consumers. The state machine is
//
//	queued → running → done | failed | cancelled
//	            ↘ paused (checkpointed) → queued → running → ...
//
// Cancellation and pausing are cooperative through the session context:
// the sampler unwinds at the next budget charge, freeing the worker
// without affecting other jobs. Determinism is end to end: a job's final
// edge-sequence hash, edge count and estimate are identical whether it
// ran straight through or was paused, checkpointed to disk, and resumed
// by a different manager in a different process (see the package tests).
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"frontier/internal/core"
	"frontier/internal/crawl"
	"frontier/internal/live"
	"frontier/internal/obs"
	"frontier/internal/xrand"
)

// State is a job's position in the lifecycle state machine.
type State string

// Job states. Done, Failed and Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// DefaultCheckpointEvery is the number of emitted edges between
// checkpoints when the spec does not say otherwise.
const DefaultCheckpointEvery = 256

// Spec describes one sampling job. The zero hit-ratio/cost fields mean
// the paper's unit cost model.
type Spec struct {
	// Graph names the hosted graph the job samples. Empty means the
	// manager's default graph, which is also what specs written before
	// multi-graph hosting deserialize to — old checkpoints resume
	// unchanged.
	Graph string `json:"graph,omitempty"`
	// Method selects the sampler by method-registry name. The built-in
	// set is the paper's full comparison roster: "fs", "dfs", "single",
	// "multiple" (the degree-proportional walk samplers), "mhrw" and
	// "rv" (uniform-vertex samplers), "re" (uniform edges; needs a
	// graph with edge-level queries) and "jump" (random walk with
	// uniform restarts, tuned by JumpProb). Custom methods appear here
	// once registered (WithMethods).
	Method string `json:"method"`
	// M is the walker count (fs, dfs, multiple); default 1.
	M int `json:"m,omitempty"`
	// JumpProb is the uniform-restart probability α ∈ [0,1) for method
	// "jump" (see core.JumpRW: the restart probability at vertex v is
	// w/(w+deg(v)) with w = α/(1−α)). Rejected on any other method.
	JumpProb float64 `json:"jump_prob,omitempty"`
	// Budget is the sampling budget B (continuous time for dfs).
	Budget float64 `json:"budget"`
	// Seed is the deterministic RNG seed; two jobs with equal specs
	// produce identical samples.
	Seed uint64 `json:"seed"`
	// Estimate selects what the job estimates from its edge stream by
	// live-estimator registry name: "avgdegree" (default), "clustering",
	// "assortativity", "degreedist" or "groupdensity" (some need source
	// facets — edge-level queries, group labels — and are rejected at
	// submission when the graph lacks them). Custom estimators appear
	// here once registered.
	Estimate string `json:"estimate,omitempty"`
	// StopRule is an optional adaptive-stopping condition (see
	// live.ParseStopRule), e.g. "ci_halfwidth<=0.01", "ess>=5000" or
	// "rhat<=1.05": the job halts as soon as its live convergence
	// monitor satisfies the rule instead of burning the full budget.
	// Empty means budget-only, the historical behavior.
	StopRule string `json:"stop_rule,omitempty"`
	// CheckpointEvery is the number of emitted edges between checkpoints
	// (0 = DefaultCheckpointEvery).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

func (sp *Spec) normalize() {
	if sp.M < 1 {
		sp.M = 1
	}
	if sp.Estimate == "" {
		sp.Estimate = "avgdegree"
	}
	if sp.CheckpointEvery <= 0 {
		sp.CheckpointEvery = DefaultCheckpointEvery
	}
}

// validate checks sp against a resolved source, the method registry
// and the estimator registry. Unknown methods and estimates fail with
// the registries' full name lists, so the error teaches the caller
// what the service can run and estimate; method/estimator mismatches
// (a vertex sampler driving an edge-level estimand) are caught here
// too, before the job ever queues.
func (sp Spec) validate(src crawl.Source, methods *MethodRegistry) error {
	m, err := methods.resolve(sp.Method)
	if err != nil {
		return err
	}
	if err := m.validateSpec(sp, src); err != nil {
		return err
	}
	est, err := live.Default().New(sp.Estimate, src)
	if err != nil {
		return fmt.Errorf("jobs: estimate: %w", err)
	}
	if est.NeedsEdges() && !m.EmitsEdges {
		return fmt.Errorf("jobs: estimate %q needs edge observations, which method %q does not emit", sp.Estimate, sp.Method)
	}
	if _, err := live.ParseStopRule(sp.StopRule); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if sp.Budget <= 0 {
		return errors.New("jobs: budget must be positive")
	}
	return nil
}

// newRuntime builds the live estimation runtime a spec asks for:
// estimator from the registry, a convergence monitor with one chain per
// walker (capped — Gelman-Rubin needs a few long chains, not many
// stubs), and the parsed stop rule. Construction is a pure function of
// the spec, which is what makes a resumed job's runtime identical to
// the interrupted one's.
func newRuntime(sp Spec, src crawl.Source) (*live.Runtime, error) {
	est, err := live.Default().New(sp.Estimate, src)
	if err != nil {
		return nil, err
	}
	rule, err := live.ParseStopRule(sp.StopRule)
	if err != nil {
		return nil, err
	}
	chains := sp.M
	if chains < 2 {
		chains = 2
	}
	if chains > 8 {
		chains = 8
	}
	return live.NewRuntime(est, live.NewMonitor(live.MonitorConfig{Chains: chains}), rule), nil
}

// newSampler builds the resumable sampler a spec asks for through the
// method registry; validate already guaranteed the method exists.
func (m *Manager) newSampler(sp Spec) (core.ObservationSampler, error) {
	method, err := m.methods.resolve(sp.Method)
	if err != nil {
		return nil, err
	}
	return method.Build(sp), nil
}

// Status is the externally visible snapshot of a job, served verbatim
// by the graphd job endpoints.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Spec  Spec   `json:"spec"`
	// Edges is the number of observations sampled so far (partial while
	// running, final when done). The field predates the weighted
	// observation stream: for edge-emitting methods it counts edges,
	// for vertex-emitting ones (mhrw, rv) sampled vertices.
	Edges int64 `json:"edges"`
	// Spent is the budget consumed so far.
	Spent float64 `json:"spent"`
	// Estimate is the current (partial or final) estimate; omitted until
	// the job has observed enough to form one.
	Estimate *float64 `json:"estimate,omitempty"`
	// EdgeHash is the FNV-1a hash of the emitted observation sequence
	// (vertex observations hash as their (v,v) self-pair) — equal runs
	// have equal hashes, which is how the determinism tests compare
	// interrupted and uninterrupted runs without shipping every
	// observation.
	EdgeHash string `json:"edge_hash"`
	// StopReason explains why a done job stopped: "budget" when it ran
	// its full budget, or the stop rule's convergence reason (e.g.
	// "converged: ci_halfwidth<=0.01 (...)"). Empty for non-done states.
	StopReason string `json:"stop_reason,omitempty"`
	// EstimateUpdates counts live estimation report refreshes — the
	// per-job counter /metrics exports as
	// graphd_job_estimate_updates_total.
	EstimateUpdates int64 `json:"estimate_updates,omitempty"`
	// Retries counts transparent retry attempts the job's source issued
	// against its backing API (non-zero only for crawls over a
	// resilience-wrapped netgraph client); RetrySpent is their cost in
	// budget units. They are charged to a ledger separate from Spent,
	// so a fault storm never changes which observations a job samples.
	// /metrics exports Retries as graphd_job_retries_total.
	Retries int64 `json:"retries,omitempty"`
	// RetrySpent is the budget-unit cost of Retries (see Retries).
	RetrySpent float64 `json:"retry_spent,omitempty"`
	// Breaker is the source's circuit-breaker state at the last step
	// boundary ("closed", "open", "half-open"; empty when the source
	// has no breaker). /metrics exports it as a graphd_job_breaker
	// gauge.
	Breaker string `json:"breaker,omitempty"`
	// TraceID is the job's trace identifier: the X-Trace-Id of the
	// submitting request when it carried one, minted otherwise. Every
	// log line and span event the job produces carries it, and
	// GET /v1/jobs/{id}/trace serves the job's span timeline under it.
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error,omitempty"`
}

// checkpoint is the on-disk (and in-memory) serialized form of a job.
// For queued jobs only ID/Spec/State are set; once the runner has
// reached a step boundary the full runtime state is present.
type checkpoint struct {
	ID      string                   `json:"id"`
	Spec    Spec                     `json:"spec"`
	State   State                    `json:"state"`
	Session *crawl.SessionCheckpoint `json:"session,omitempty"`
	Sampler json.RawMessage          `json:"sampler,omitempty"`
	// Live is the serialized live.Runtime: estimator sufficient
	// statistics plus the convergence monitor's bounded rings, so a
	// resumed job's estimate, CI and diagnostics continue losslessly.
	Live            json.RawMessage `json:"live,omitempty"`
	Edges           int64           `json:"edges"`
	EdgeHash        uint64          `json:"edge_hash"`
	Spent           float64         `json:"spent"`
	Estimate        *float64        `json:"estimate,omitempty"`
	StopReason      string          `json:"stop_reason,omitempty"`
	EstimateUpdates int64           `json:"estimate_updates,omitempty"`
	// Retries/RetrySpent mirror the session's retry ledger at the
	// checkpoint boundary (the full ledger also rides inside Session;
	// these copies serve status without deserializing it). Breaker is
	// the source's circuit-breaker state name at capture.
	Retries    int64   `json:"retries,omitempty"`
	RetrySpent float64 `json:"retry_spent,omitempty"`
	Breaker    string  `json:"breaker,omitempty"`
	// TraceID persists the job's trace identifier so a resumed job keeps
	// its identity across restarts (the span timeline itself is
	// in-memory only and restarts fresh with a "restored" event).
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Job is one sampling job tracked by a Manager.
type Job struct {
	id       string
	spec     Spec
	traceID  string        // immutable after Submit/load
	timeline *obs.Timeline // bounded span ring; nil only for zero-value Jobs

	// persistMu serializes checkpoint-file writes for this job. It is
	// held across the state snapshot AND the write+rename, so concurrent
	// persists (worker checkpoint vs. an HTTP cancel) cannot interleave
	// on the shared tmp file, and the last write always reflects the
	// latest state — without it a cancel's stale "running" record could
	// land after the worker's terminal one and resurrect the job on
	// restart.
	persistMu sync.Mutex

	mu         sync.Mutex
	state      State
	err        error
	cancel     context.CancelCauseFunc // non-nil while running
	edges      int64
	spent      float64
	estimate   float64 // NaN until meaningful
	hash       uint64
	stopReason string       // why a done job stopped ("budget" or a convergence reason)
	report     *live.Report // latest live estimation report, nil before the first
	estUpdates int64        // report refreshes, the /metrics counter
	retries    int64        // source retry attempts at the last checkpoint
	retrySpent float64      // their cost in budget units
	breaker    string       // breaker state at the last checkpoint ("" = none)
	cp         *checkpoint  // last step-boundary checkpoint, nil before the first

	version  int64 // bumped on every state change and checkpoint
	nextSub  int
	watchers map[int]chan struct{} // coalescing wake channels, one per Watch
}

// notifyLocked bumps the job's version and wakes every watcher. The
// wake channels have capacity 1 and the send never blocks: a watcher
// that has not yet consumed the previous wake-up coalesces this one into
// it, then reads the latest status — progress is level-triggered, so no
// update is lost, only intermediate ones are skipped. Callers must hold
// j.mu.
func (j *Job) notifyLocked() {
	j.version++
	for _, ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Watch registers for change notifications: the returned channel
// receives (coalesced) wake-ups whenever the job's state or progress
// changes; read the fresh snapshot with StatusVersion after each one.
// stop unregisters the watcher and must be called exactly once.
func (j *Job) Watch() (wake <-chan struct{}, stop func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = make(map[int]chan struct{})
	}
	id := j.nextSub
	j.nextSub++
	j.watchers[id] = ch
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.watchers, id)
		j.mu.Unlock()
	}
}

// StatusVersion returns the job's status snapshot together with a
// monotonically increasing version, letting a Watch loop skip writes
// when nothing changed between wake-ups.
func (j *Job) StatusVersion() (Status, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), j.version
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds the snapshot; callers must hold j.mu.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:       j.id,
		State:    j.state,
		Spec:     j.spec,
		Edges:    j.edges,
		Spent:    j.spent,
		EdgeHash: fmt.Sprintf("%016x", j.hash),
	}
	if !math.IsNaN(j.estimate) {
		e := j.estimate
		st.Estimate = &e
	}
	if j.state == StateDone {
		st.StopReason = j.stopReason
	}
	st.EstimateUpdates = j.estUpdates
	st.Retries = j.retries
	st.RetrySpent = j.retrySpent
	st.Breaker = j.breaker
	st.TraceID = j.traceID
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// recordEvent appends a span event to the job's timeline (nil-safe, so
// zero-value Jobs in tests cannot crash the recorder).
func (j *Job) recordEvent(name, detail string) {
	if j.timeline != nil {
		j.timeline.Record(name, detail)
	}
}

// Trace is the span-timeline payload served at GET /v1/jobs/{id}/trace:
// the job's lifecycle events (queued→running→checkpoint→terminal) plus
// any crawl-level resilience events ("crawl/retry", "crawl/hedge",
// "crawl/breaker") its source emitted while the job ran.
type Trace struct {
	// JobID is the job's identifier.
	JobID string `json:"job_id"`
	// TraceID is the job's trace identifier (see Status.TraceID).
	TraceID string `json:"trace_id,omitempty"`
	// Events is the timeline, oldest first. The ring is bounded
	// (obs.DefaultTimelineCap); when it overflowed, the oldest events
	// were dropped and Dropped counts them.
	Events []obs.Event `json:"events"`
	// Dropped counts events lost to ring overflow.
	Dropped int64 `json:"dropped,omitempty"`
}

// Trace returns the job's span timeline snapshot.
func (j *Job) Trace() Trace {
	tr := Trace{JobID: j.id, TraceID: j.traceID}
	if j.timeline != nil {
		tr.Events = j.timeline.Events()
		tr.Dropped = j.timeline.Dropped()
	} else {
		tr.Events = []obs.Event{}
	}
	return tr
}

// setReport installs a fresh live estimation report, bumping the
// estimate-update counter and waking watchers (the SSE stream sends an
// "estimate" frame per refresh it observes).
func (j *Job) setReport(rep *live.Report) {
	j.mu.Lock()
	j.report = rep
	j.estUpdates++
	j.notifyLocked()
	j.mu.Unlock()
}

// EstimateReport returns the job's latest live estimation report, its
// refresh sequence number (monotone; the estimate-update counter), and
// whether a report exists yet.
func (j *Job) EstimateReport() (live.Report, int64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.report == nil {
		return live.Report{}, j.estUpdates, false
	}
	return *j.report, j.estUpdates, true
}

// errPaused is the cancellation cause distinguishing a pause (resume
// later from the last checkpoint) from a cancel (terminal).
var errPaused = errors.New("jobs: paused")

// errConverged is the cancellation cause for adaptive stopping: the
// job's stop rule is satisfied, so the sampler is unwound early and the
// job finishes done — with the convergence reason, not "budget".
var errConverged = errors.New("jobs: estimate converged")

// StopReasonBudget is the Status.StopReason of a done job that ran its
// full budget (no stop rule, or a rule that never fired).
const StopReasonBudget = "budget"

// queueCapacity bounds how many submitted-but-not-running jobs a
// manager holds before Submit returns ErrQueueFull.
const queueCapacity = 1024

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrStopped is returned by Submit after the manager has been stopped.
var ErrStopped = errors.New("jobs: manager stopped")

// ErrUnknownJob is returned for operations on ids the manager does not
// track.
var ErrUnknownJob = errors.New("jobs: unknown job")

// Resolver maps a Spec's Graph name to the source the job samples.
// Implementations are the bridge between the manager's worker pool and a
// catalog of hosted graphs (netgraph.Catalog implements Resolver).
type Resolver interface {
	// Resolve returns the source serving name ("" means the default
	// graph) together with a release callback. The source stays pinned —
	// protected from eviction — until release is called; the manager
	// calls it when the job leaves a worker (done, failed, cancelled or
	// paused). release is never nil on success and is safe to call once.
	Resolve(name string) (src crawl.Source, release func(), err error)
}

// staticResolver serves a single fixed source under the default name,
// preserving the one-graph NewManager contract.
type staticResolver struct{ src crawl.Source }

func (r staticResolver) Resolve(name string) (crawl.Source, func(), error) {
	if name != "" {
		return nil, nil, fmt.Errorf("jobs: unknown graph %q (manager hosts a single unnamed graph)", name)
	}
	return r.src, func() {}, nil
}

// Option configures a Manager.
type Option func(*Manager)

// WithResolver routes each job's Graph name through r instead of the
// single source passed to NewManager (which may then be nil). Use it to
// run one worker pool over a catalog of named graphs.
func WithResolver(r Resolver) Option {
	return func(m *Manager) { m.resolver = r }
}

// WithWorkers sets the worker pool size (default 4, minimum 1).
func WithWorkers(n int) Option {
	return func(m *Manager) {
		if n > 0 {
			m.workers = n
		}
	}
}

// WithCheckpointDir persists every job's checkpoints under dir (one
// JSON file per job, written atomically). A new Manager over the same
// dir reloads them: terminal jobs stay queryable, interrupted ones are
// requeued and resume from their last step boundary.
func WithCheckpointDir(dir string) Option {
	return func(m *Manager) { m.dir = dir }
}

// WithMethods validates and builds every job's Method through reg
// instead of the process-wide DefaultMethods() registry. Use it to
// host custom sampling methods on one manager without registering
// them globally.
func WithMethods(reg *MethodRegistry) Option {
	return func(m *Manager) {
		if reg != nil {
			m.methods = reg
		}
	}
}

// WithLogger routes the manager's structured logs — job lifecycle
// events at info, per-slab progress at debug, checkpoint-persistence
// failures at error — through l. Without it the manager is silent
// except for persistence failures, which fall back to the standard log
// package so they are never lost.
func WithLogger(l *slog.Logger) Option {
	return func(m *Manager) {
		if l != nil {
			m.log = l
			m.logSet = true
		}
	}
}

// Manager owns the job table, the bounded queue and the worker pool.
// All methods are safe for concurrent use.
type Manager struct {
	resolver  Resolver
	methods   *MethodRegistry
	workers   int
	dir       string
	log       *slog.Logger
	logSet    bool              // WithLogger was used (persistErr fallback)
	durations *obs.HistogramVec // per-method job wall time, /metrics histogram

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int
	closed bool

	busy           atomic.Int64 // workers currently running a job
	lastCheckpoint atomic.Int64 // unix nanos of the newest checkpoint, 0 = none

	queue          chan string
	stopCh         chan struct{}
	wg             sync.WaitGroup
	persistErrOnce sync.Once
}

// NewManager creates a manager sampling from src and starts its worker
// pool. When src also implements estimate.EdgeView (both *graph.Graph
// and the netgraph client do), edge-level estimates are available. With
// WithResolver, src is ignored (pass nil) and every job's Graph name is
// resolved through the resolver instead. With WithCheckpointDir,
// previously persisted jobs are loaded and non-terminal ones requeued
// before the workers start.
func NewManager(src crawl.Source, opts ...Option) (*Manager, error) {
	m := &Manager{
		methods:   DefaultMethods(),
		workers:   4,
		jobs:      make(map[string]*Job),
		log:       obs.NopLogger(),
		durations: obs.NewHistogramVec("method", nil),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.resolver == nil {
		if src == nil {
			return nil, errors.New("jobs: NewManager needs a source or WithResolver")
		}
		m.resolver = staticResolver{src: src}
	}
	m.queue = make(chan string, queueCapacity)
	m.stopCh = make(chan struct{})
	if m.dir != "" {
		if err := m.loadCheckpoints(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < m.workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Workers returns the worker pool size.
func (m *Manager) Workers() int { return m.workers }

// BusyWorkers returns how many workers are currently running a job —
// the worker-pool occupancy exposed at /metrics.
func (m *Manager) BusyWorkers() int { return int(m.busy.Load()) }

// QueueDepth returns the number of submitted jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// LastCheckpoint returns the time of the newest step-boundary checkpoint
// taken by any job (zero if none has been taken yet). Operators alert on
// its age: a stalling checkpoint clock under running jobs means progress
// has stopped.
func (m *Manager) LastCheckpoint() time.Time {
	ns := m.lastCheckpoint.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// ActiveJobs returns the number of jobs currently queued, running or
// paused (i.e. not in a terminal state).
func (m *Manager) ActiveJobs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Submit validates sp — including that its Graph name resolves and
// supports the requested estimate — assigns an id and enqueues the job
// under a freshly minted trace ID.
func (m *Manager) Submit(sp Spec) (*Job, error) {
	return m.SubmitTrace(sp, "")
}

// SubmitTrace is Submit with an explicit trace ID — the graphd job
// endpoint passes the submitting request's X-Trace-Id so the job's
// logs and span timeline share the caller's trace. An empty traceID
// mints a fresh one.
func (m *Manager) SubmitTrace(sp Spec, traceID string) (*Job, error) {
	sp.normalize()
	src, release, err := m.resolver.Resolve(sp.Graph)
	if err != nil {
		return nil, err
	}
	release() // validation only; the job pins the graph when it runs
	if err := sp.validate(src, m.methods); err != nil {
		return nil, err
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrStopped
	}
	m.nextID++
	j := &Job{
		id: fmt.Sprintf("job-%06d", m.nextID), spec: sp, state: StateQueued,
		estimate: math.NaN(), traceID: traceID, timeline: obs.NewTimeline(0),
	}
	// Record queued before the send: a worker may take the job the
	// moment it is on the queue and record running.
	j.recordEvent("queued", "")
	select {
	case m.queue <- j.id:
	default:
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.mu.Unlock()
	m.log.LogAttrs(context.Background(), slog.LevelInfo, "job queued",
		slog.String("job_id", j.id), slog.String("trace_id", traceID),
		slog.String("method", sp.Method), slog.String("graph", sp.Graph),
		slog.Float64("budget", sp.Budget))
	m.persist(j)
	return j, nil
}

// JobDurations returns the per-method job wall-time histogram vector
// the server renders at /metrics as graphd_job_duration_seconds.
func (m *Manager) JobDurations() *obs.HistogramVec { return m.durations }

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all tracked jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// Cancel moves a job to the cancelled state. Queued and paused jobs
// cancel immediately; a running job's session context is cancelled and
// the worker frees up at the sampler's next budget charge. Cancelling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued, StatePaused:
		j.state = StateCancelled
		j.notifyLocked()
	case StateRunning:
		j.cancel(context.Canceled)
	}
	j.mu.Unlock()
	m.persist(j)
	return nil
}

// Pause checkpoints a running job and returns it to the paused state;
// the last step-boundary checkpoint (written every CheckpointEvery
// edges) is what a later resume continues from. Pausing a queued job
// parks it; pausing a terminal job is an error.
func (m *Manager) Pause(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateRunning:
		j.cancel(errPaused)
		return nil
	case StateQueued:
		j.state = StatePaused
		j.notifyLocked()
		return nil
	case StatePaused:
		return nil
	default:
		return fmt.Errorf("jobs: cannot pause %s job %s", j.state, id)
	}
}

// Resume requeues a paused job.
func (m *Manager) Resume(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.mu.Lock()
	if j.state != StatePaused {
		j.mu.Unlock()
		return fmt.Errorf("jobs: cannot resume %s job %s", j.state, id)
	}
	j.state = StateQueued
	j.notifyLocked()
	j.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStopped
	}
	select {
	case m.queue <- id:
		return nil
	default:
		j.mu.Lock()
		j.state = StatePaused
		j.mu.Unlock()
		return ErrQueueFull
	}
}

// Stop pauses every running job (checkpointing it at its next step
// boundary), waits for the workers to drain, and rejects further
// submissions. Queued jobs stay queued on disk; a new manager over the
// same checkpoint directory picks everything up again.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			j.cancel(errPaused)
		}
		j.mu.Unlock()
	}
	close(m.stopCh)
	m.wg.Wait()
}

func (m *Manager) stopped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stopCh:
			return
		case id := <-m.queue:
			j, ok := m.Get(id)
			if !ok {
				continue
			}
			j.mu.Lock()
			queued, graphName := j.state == StateQueued, j.spec.Graph
			j.mu.Unlock()
			if !queued {
				// Cancelled or paused while waiting in the queue.
				continue
			}
			// Pin the graph before the job reads running, so the graph
			// cannot be evicted from under a running job.
			src, release, err := m.resolver.Resolve(graphName)
			if err != nil {
				release = func() {}
			}
			if m.stopped() {
				// Leave the job queued (it is persisted as such); a new
				// manager over the checkpoint dir picks it up.
				release()
				return
			}
			j.mu.Lock()
			if j.state != StateQueued {
				// Cancelled or paused while the graph resolved.
				j.mu.Unlock()
				release()
				continue
			}
			if err != nil {
				j.mu.Unlock()
				m.finish(j, StateFailed, fmt.Errorf("jobs: resolving graph %q: %w", graphName, err))
				continue
			}
			ctx, cancel := context.WithCancelCause(context.Background())
			j.state = StateRunning
			j.cancel = cancel
			method := j.spec.Method
			j.notifyLocked()
			j.mu.Unlock()
			j.recordEvent("running", "")
			m.log.LogAttrs(ctx, slog.LevelInfo, "job running",
				slog.String("job_id", j.id), slog.String("trace_id", j.traceID),
				slog.String("method", method))
			m.busy.Add(1)
			start := time.Now()
			m.runJob(ctx, j, src, release)
			m.durations.Observe(method, time.Since(start).Seconds())
			m.busy.Add(-1)
			cancel(nil)
		}
	}
}

// runJob drives one job from its spec or last checkpoint to the next
// terminal or paused state over src, the job's pinned graph, and calls
// release when it returns.
func (m *Manager) runJob(ctx context.Context, j *Job, src crawl.Source, release func()) {
	defer release()
	j.mu.Lock()
	cp := j.cp
	spec := j.spec
	j.mu.Unlock()

	// Route the source's transport-level resilience events (retry,
	// hedge, breaker transitions) into this job's span timeline for the
	// duration of the run. With several workers sharing one source the
	// last installer wins — events attribute to the most recent job.
	if es, ok := src.(crawl.EventSource); ok {
		es.SetEventSink(func(kind, detail string) { j.recordEvent("crawl/"+kind, detail) })
		defer es.SetEventSink(nil)
	}

	rt, err := newRuntime(spec, src)
	if err != nil {
		m.finish(j, StateFailed, fmt.Errorf("jobs: building estimator: %w", err))
		return
	}
	sampler, err := m.newSampler(spec)
	if err != nil {
		m.finish(j, StateFailed, err)
		return
	}
	method, err := m.methods.resolve(spec.Method)
	if err != nil {
		m.finish(j, StateFailed, err)
		return
	}
	var sess *crawl.Session
	var edges int64
	var hash uint64 = fnvOffset
	resume := cp != nil && cp.Session != nil
	if resume {
		var err error
		sess, err = crawl.ResumeSession(ctx, src, *cp.Session)
		if err == nil {
			err = sampler.Restore(cp.Sampler)
		}
		if err == nil {
			err = rt.Restore(cp.Live)
		}
		if err != nil {
			m.finish(j, StateFailed, fmt.Errorf("jobs: restoring checkpoint: %w", err))
			return
		}
		edges, hash = cp.Edges, cp.EdgeHash
	} else {
		model := crawl.UnitCosts()
		sess = crawl.NewSessionContext(ctx, src, spec.Budget, model, xrand.New(spec.Seed))
	}

	// All built-in job samplers report which walker moved; the assertion
	// is defensive against custom non-tracking methods (chain 0 then
	// takes every observation, degrading R-hat but nothing else).
	tracker, _ := sampler.(core.WalkerTracker)
	stopIssued := false
	emit := func(o core.Observation) {
		hash = hashEdge(hash, o.U, o.V)
		edges++
		walker := 0
		if tracker != nil {
			walker = tracker.LastWalker()
		}
		if rep := rt.ObserveSample(walker, o); rep != nil {
			j.setReport(rep)
			if rep.Converged && !stopIssued {
				// Adaptive stop: unwind the sampler at its next budget
				// charge. The cancellation cause marks this "done", not
				// "cancelled".
				stopIssued = true
				j.recordEvent("converged", rep.StopReason)
				j.mu.Lock()
				if j.cancel != nil {
					j.cancel(errConverged)
				}
				j.mu.Unlock()
			}
		}
		if edges%int64(spec.CheckpointEvery) == 0 {
			m.checkpointNow(j, sess, sampler, rt, edges, hash)
		}
	}

	// Methods without per-walker attribution (single, mhrw, rv, re,
	// jump: LastWalker ≡ 0, so chain 0 takes every observation either
	// way) are driven through the allocation-free batched surface. The
	// batched run emits the byte-identical observation stream, so edge
	// hash, runtime state and resumability are unchanged; only the
	// granularity moves — checkpoints land at the slab boundary that
	// crosses a CheckpointEvery multiple, and a convergence stop unwinds
	// at the next slab instead of the next observation (≤ core.SlabSize
	// extra observations, all still hashed and consumed). Walker-tracked
	// methods (fs, dfs, multiple) keep the per-observation drive: the
	// R-hat chains need LastWalker per observation.
	// Per-slab progress logging is guarded by a level check hoisted out
	// of the hot loop: when debug is disabled (the normal case) the
	// batched path stays allocation-free — BenchmarkObsBatchLogging
	// gates exactly this property.
	logSlabs := m.log.Enabled(ctx, slog.LevelDebug)
	emitBatch := func(batch []core.Observation) {
		for _, o := range batch {
			hash = hashEdge(hash, o.U, o.V)
		}
		prev := edges
		edges += int64(len(batch))
		if logSlabs {
			m.log.LogAttrs(ctx, slog.LevelDebug, "slab",
				slog.String("job_id", j.id), slog.Int("n", len(batch)),
				slog.Int64("edges", edges))
		}
		if rep := rt.ObserveBatch(0, batch); rep != nil {
			j.setReport(rep)
			if rep.Converged && !stopIssued {
				stopIssued = true
				j.recordEvent("converged", rep.StopReason)
				j.mu.Lock()
				if j.cancel != nil {
					j.cancel(errConverged)
				}
				j.mu.Unlock()
			}
		}
		if edges/int64(spec.CheckpointEvery) != prev/int64(spec.CheckpointEvery) {
			m.checkpointNow(j, sess, sampler, rt, edges, hash)
		}
	}
	drive := func() error {
		if !method.UsesWalkers {
			if resume {
				return sampler.ResumeObsBatch(sess, emitBatch)
			}
			return sampler.RunObsBatch(sess, emitBatch)
		}
		if resume {
			return sampler.ResumeObs(sess, emit)
		}
		return sampler.RunObs(sess, emit)
	}

	if runSafe, ok := src.(interface{ RunSafely(func() error) error }); ok {
		// Network sources surface fetch failures through panics; convert
		// them to job failures instead of killing the worker.
		err = runSafe.RunSafely(drive)
	} else {
		err = drive()
	}

	// finishDone records the final live report and state for the two
	// successful endings (budget exhausted, estimate converged).
	finishDone := func(reason string) {
		j.mu.Lock()
		j.stopReason = reason
		j.mu.Unlock()
		final := rt.Report()
		j.setReport(&final)
		m.checkpointNow(j, sess, sampler, rt, edges, hash)
		m.finish(j, StateDone, nil)
	}

	switch {
	case err == nil:
		// Budget exhausted: the job is done. Record the final state.
		finishDone(StopReasonBudget)
	case errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), errConverged):
		// The stop rule fired: done early, with the convergence reason.
		_, reason := rt.Converged()
		finishDone(reason)
	case errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), errPaused):
		// Paused: keep the last step-boundary checkpoint for resume. The
		// edges emitted since then will be re-run identically.
		m.finish(j, StatePaused, nil)
	case errors.Is(err, context.Canceled):
		m.finish(j, StateCancelled, nil)
	default:
		m.finish(j, StateFailed, err)
	}
}

// checkpointNow records the job's full runtime state at a step boundary
// (called from inside emit, where sampler, session and live runtime are
// consistent) and persists it when a checkpoint directory is
// configured.
func (m *Manager) checkpointNow(j *Job, sess *crawl.Session, sampler core.ObservationSampler, rt *live.Runtime, edges int64, hash uint64) {
	snap, err := sampler.Snapshot()
	if err != nil {
		return // not started; nothing worth recording yet
	}
	liveState, err := rt.State()
	if err != nil {
		return
	}
	scp := sess.Checkpoint()
	est := rt.Estimator().Value()
	cp := &checkpoint{
		ID:       j.id,
		Spec:     j.spec,
		Session:  &scp,
		Sampler:  snap,
		Live:     liveState,
		Edges:    edges,
		EdgeHash: hash,
		Spent:    scp.Stats.Spent,
		// Checkpoint() synced the source's retry ledger into Stats and
		// captured any resilience (breaker/limiter) state into scp, so
		// the numbers here agree with the serialized session.
		Retries:    scp.Stats.Retries,
		RetrySpent: scp.Stats.RetrySpent,
		Breaker:    sess.BreakerState(),
	}
	if !math.IsNaN(est) {
		e := est
		cp.Estimate = &e
	}
	j.mu.Lock()
	cp.State = j.state
	cp.StopReason = j.stopReason
	cp.EstimateUpdates = j.estUpdates
	cp.TraceID = j.traceID
	j.cp = cp
	j.edges = edges
	j.spent = scp.Stats.Spent
	j.retries = cp.Retries
	j.retrySpent = cp.RetrySpent
	j.breaker = cp.Breaker
	j.estimate = est
	j.hash = hash
	j.notifyLocked()
	j.mu.Unlock()
	j.recordEvent("checkpoint", fmt.Sprintf("edges=%d spent=%g retries=%d", edges, scp.Stats.Spent, cp.Retries))
	m.lastCheckpoint.Store(time.Now().UnixNano())
	m.persist(j)
}

// finish moves a job to its post-run state.
func (m *Manager) finish(j *Job, state State, err error) {
	j.mu.Lock()
	// A cancel that raced the final step wins over "done": the caller
	// asked for the job to stop and was told so.
	if !(state == StateDone && j.state == StateCancelled) {
		j.state = state
	}
	j.err = err
	j.cancel = nil
	final := j.state
	detail := j.stopReason
	edges := j.edges
	j.notifyLocked()
	j.mu.Unlock()
	if err != nil {
		detail = err.Error()
	}
	j.recordEvent(string(final), detail)
	level := slog.LevelInfo
	if final == StateFailed {
		level = slog.LevelError
	}
	m.log.LogAttrs(context.Background(), level, "job finished",
		slog.String("job_id", j.id), slog.String("trace_id", j.traceID),
		slog.String("state", string(final)), slog.Int64("edges", edges),
		slog.String("detail", detail))
	m.persist(j)
}

// persist writes the job's current checkpoint file atomically. A no-op
// without a checkpoint directory. Write failures are logged once per
// manager — checkpointing is best-effort durability, but losing it
// silently would let an operator believe jobs are resumable when they
// are not.
func (m *Manager) persist(j *Job) {
	if m.dir == "" {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	j.mu.Lock()
	// The live counters (j.edges, j.hash, j.spent) are only advanced at
	// checkpoint boundaries, so they always agree with the serialized
	// session/sampler state below; for terminal jobs they are the final
	// numbers.
	cp := checkpoint{
		ID: j.id, Spec: j.spec, State: j.state,
		Edges: j.edges, EdgeHash: j.hash, Spent: j.spent,
		StopReason: j.stopReason, EstimateUpdates: j.estUpdates,
		Retries: j.retries, RetrySpent: j.retrySpent, Breaker: j.breaker,
	}
	if j.cp != nil {
		cp.Session = j.cp.Session
		cp.Sampler = j.cp.Sampler
		cp.Live = j.cp.Live
		// The persisted estimate-update counter must agree with the
		// persisted live state, exactly like edges/hash/spent: reports
		// published after the last step boundary will be re-published
		// identically on resume, and persisting the live counter would
		// double-count them across a pause/restart.
		cp.EstimateUpdates = j.cp.EstimateUpdates
	}
	if !math.IsNaN(j.estimate) {
		e := j.estimate
		cp.Estimate = &e
	}
	if j.err != nil {
		cp.Error = j.err.Error()
	}
	j.mu.Unlock()

	data, err := json.Marshal(cp)
	if err != nil {
		m.persistErr(cp.ID, err)
		return
	}
	path := filepath.Join(m.dir, cp.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		m.persistErr(cp.ID, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		m.persistErr(cp.ID, err)
	}
}

// persistErr reports the first checkpoint-write failure (subsequent
// ones are almost always the same full-disk/permissions condition).
func (m *Manager) persistErr(id string, err error) {
	m.persistErrOnce.Do(func() {
		m.log.LogAttrs(context.Background(), slog.LevelError,
			"persisting checkpoint failed (further failures suppressed)",
			slog.String("job_id", id), slog.String("dir", m.dir),
			slog.String("error", err.Error()))
		if !m.logSet {
			// No structured logger configured: fall back to the standard
			// log package so the failure is never silently swallowed.
			log.Printf("jobs: persisting %s to %s failed (further failures suppressed): %v", id, m.dir, err)
		}
	})
}

// loadCheckpoints restores the job table from the checkpoint directory,
// requeuing every non-terminal job. Called before the workers start, so
// no locking subtleties.
func (m *Manager) loadCheckpoints() error {
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return fmt.Errorf("jobs: checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return fmt.Errorf("jobs: checkpoint dir: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(m.dir, ent.Name()))
		if err != nil {
			return fmt.Errorf("jobs: reading checkpoint %s: %w", ent.Name(), err)
		}
		var cp checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return fmt.Errorf("jobs: decoding checkpoint %s: %w", ent.Name(), err)
		}
		cp.Spec.normalize()
		// A checkpoint whose graph no longer resolves (e.g. a hot-loaded
		// graph evicted before the restart) or whose spec fails validation
		// marks its job failed instead of aborting the reload: one stale
		// checkpoint must not take down the whole manager.
		var invalid error
		var report *live.Report
		if src, release, rerr := m.resolver.Resolve(cp.Spec.Graph); rerr != nil {
			invalid = rerr
		} else {
			invalid = cp.Spec.validate(src, m.methods)
			if invalid == nil && cp.State == StateDone && len(cp.Live) > 0 {
				// A done checkpoint carries the final live-runtime state, so
				// the report the job published as it finished is exactly
				// reconstructible (newRuntime is a pure function of the
				// spec). Rehydrate it: otherwise the restored job answers
				// EstimateReport with "no report yet", the estimates
				// endpoint 404s, and a sweep reattaching to the job after a
				// restart would aggregate its figure from a result missing
				// the estimand vector. A state that fails to restore (e.g.
				// cross-version live state) leaves the report absent —
				// consumers that need it fail loudly downstream.
				if rt, err := newRuntime(cp.Spec, src); err == nil {
					if err := rt.Restore(cp.Live); err == nil {
						rep := rt.Report()
						report = &rep
					}
				}
			}
			release()
		}
		j := &Job{
			id: cp.ID, spec: cp.Spec, edges: cp.Edges, spent: cp.Spent,
			hash: cp.EdgeHash, estimate: math.NaN(),
			stopReason: cp.StopReason, estUpdates: cp.EstimateUpdates,
			retries: cp.Retries, retrySpent: cp.RetrySpent, breaker: cp.Breaker,
			traceID: cp.TraceID, timeline: obs.NewTimeline(0),
		}
		if j.traceID == "" {
			// Checkpoints written before trace support: mint now so every
			// job always has a trace identity.
			j.traceID = obs.NewTraceID()
		}
		j.recordEvent("restored", "from checkpoint "+ent.Name())
		// estUpdates already carries the checkpointed counter; installing
		// the rehydrated report must not bump it, so this bypasses
		// setReport deliberately (the job is not yet visible to watchers).
		j.report = report
		if cp.Estimate != nil {
			j.estimate = *cp.Estimate
		}
		if cp.Error != "" {
			j.err = errors.New(cp.Error)
		}
		if cp.Session != nil {
			c := cp
			j.cp = &c
		}
		switch {
		case invalid != nil && !cp.State.Terminal():
			j.state = StateFailed
			j.err = fmt.Errorf("jobs: checkpoint %s: %w", ent.Name(), invalid)
		case cp.State.Terminal():
			j.state = cp.State
		default:
			// Interrupted mid-flight (queued, running at crash time, or
			// paused): requeue from the last step boundary.
			j.state = StateQueued
		}
		m.jobs[cp.ID] = j
		if n := idNumber(cp.ID); n > m.nextID {
			m.nextID = n
		}
		if j.state == StateQueued {
			select {
			case m.queue <- j.id:
			default:
				return ErrQueueFull
			}
		}
	}
	return nil
}

// idNumber extracts the numeric suffix of a "job-%06d" id (0 if the id
// was produced elsewhere).
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// FNV-1a over the edge sequence: order-sensitive, deterministic, and
// cheap enough to run per edge.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashEdge(h uint64, u, v int) uint64 {
	for _, x := range [2]uint64{uint64(u), uint64(v)} {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}
