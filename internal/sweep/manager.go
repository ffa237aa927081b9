package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"frontier/internal/graph"
	"frontier/internal/jobs"
	"frontier/internal/obs"
)

// ErrStopped is returned by Submit after the manager has been stopped.
var ErrStopped = errors.New("sweep: manager stopped")

// ErrUnknownSweep is returned for operations on unknown sweep ids.
var ErrUnknownSweep = errors.New("sweep: unknown sweep")

// GraphSource resolves hosted graphs by name ("" = default) for spec
// validation and truth computation. *netgraph.Catalog satisfies it.
type GraphSource interface {
	Graph(name string) (*graph.Graph, *graph.GroupLabels, error)
}

// timelineCapacity bounds each sweep's stage-event ring.
const timelineCapacity = 512

// Manager plans, executes, persists, and resumes sweeps over one job
// manager. Construct with NewManager; Stop for a clean shutdown.
type Manager struct {
	jobs            *jobs.Manager
	graphs          GraphSource
	dir             string // manifest dir ("" = in-memory only)
	artDir          string // artifact dir
	log             *slog.Logger
	defaultParallel int

	mu     sync.Mutex
	sweeps map[string]*Sweep
	order  []string
	nextID int

	stopping  atomic.Bool
	wg        sync.WaitGroup
	persistMu sync.Mutex
}

// Option configures a Manager.
type Option func(*Manager)

// WithDir persists sweep manifests under dir (conventionally a
// "sweeps" dir next to the job checkpoint dir) and resumes any
// non-terminal manifests found there at construction.
func WithDir(dir string) Option { return func(m *Manager) { m.dir = dir } }

// WithArtifactDir writes figure artifacts under dir (default: a
// sibling "artifacts" dir of the manifest dir, or for an in-memory
// manager a "frontier-sweep-artifacts" dir under os.TempDir).
func WithArtifactDir(dir string) Option { return func(m *Manager) { m.artDir = dir } }

// WithLogger routes sweep lifecycle logs to l (default: no logging).
func WithLogger(l *slog.Logger) Option { return func(m *Manager) { m.log = l } }

// WithParallel sets the default bound on concurrently in-flight
// sampling jobs per sweep (default: the job manager's worker count).
func WithParallel(n int) Option { return func(m *Manager) { m.defaultParallel = n } }

// NewManager builds a sweep manager over jm and gs, loading and
// resuming any persisted manifests before returning.
func NewManager(jm *jobs.Manager, gs GraphSource, opts ...Option) (*Manager, error) {
	if jm == nil {
		return nil, errors.New("sweep: nil jobs manager")
	}
	if gs == nil {
		return nil, errors.New("sweep: nil graph source")
	}
	m := &Manager{
		jobs:   jm,
		graphs: gs,
		log:    obs.NopLogger(),
		sweeps: make(map[string]*Sweep),
	}
	for _, o := range opts {
		o(m)
	}
	if m.defaultParallel <= 0 {
		m.defaultParallel = jm.Workers()
	}
	if m.artDir == "" {
		if m.dir != "" {
			m.artDir = filepath.Join(filepath.Dir(m.dir), "artifacts")
		} else {
			m.artDir = filepath.Join(os.TempDir(), "frontier-sweep-artifacts")
		}
	}
	for _, d := range []string{m.dir, m.artDir} {
		if d != "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, fmt.Errorf("sweep: create dir: %w", err)
			}
		}
	}
	if err := m.loadManifests(); err != nil {
		return nil, err
	}
	return m, nil
}

// Submit plans and starts a sweep, minting a fresh trace id.
func (m *Manager) Submit(sp Spec) (*Sweep, error) { return m.SubmitTrace(sp, "") }

// SubmitTrace plans and starts a sweep under the given trace id ("" =
// mint one). The spec is normalized (defaults filled) and validated
// against the hosted graph before any node runs.
func (m *Manager) SubmitTrace(sp Spec, traceID string) (*Sweep, error) {
	if m.stopping.Load() {
		return nil, ErrStopped
	}
	sp, err := m.normalize(sp)
	if err != nil {
		return nil, err
	}
	g, gl, err := m.graphs.Graph(sp.Graph)
	if err != nil {
		return nil, err
	}
	nodes, err := plan(sp, g, gl)
	if err != nil {
		return nil, err
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}

	m.mu.Lock()
	if m.stopping.Load() {
		m.mu.Unlock()
		return nil, ErrStopped
	}
	m.nextID++
	id := fmt.Sprintf("sweep-%06d", m.nextID)
	sw := m.newSweep(id, sp, traceID, nodes)
	m.sweeps[id] = sw
	m.order = append(m.order, id)
	m.mu.Unlock()

	sw.timeline.Record("sweep/submitted",
		fmt.Sprintf("artifact=%s nodes=%d runs=%d parallel=%d on_error=%s",
			sp.Artifact, len(nodes), sp.Runs, sp.Parallel, sp.OnError))
	m.log.Info("sweep submitted", "sweep", id, "artifact", sp.Artifact,
		"nodes", len(nodes), "trace", traceID)
	m.persist(sw)
	m.wg.Add(1)
	go sw.run()
	return sw, nil
}

// normalize fills spec defaults and validates enumerations.
func (m *Manager) normalize(sp Spec) (Spec, error) {
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Runs <= 0 {
		sp.Runs = 40
	}
	if sp.Runs > 1000 {
		return Spec{}, fmt.Errorf("sweep: runs %d exceeds the 1000 cap", sp.Runs)
	}
	if sp.Parallel <= 0 {
		sp.Parallel = m.defaultParallel
	}
	switch sp.OnError {
	case "":
		sp.OnError = FailFast
	case FailFast, Continue:
	default:
		return Spec{}, fmt.Errorf("sweep: on_error must be %q or %q, got %q", FailFast, Continue, sp.OnError)
	}
	if sp.Artifact == "" {
		return Spec{}, errors.New("sweep: spec needs an artifact id")
	}
	return sp, nil
}

// newSweep wires a sweep's runtime state. Callers hold m.mu.
func (m *Manager) newSweep(id string, sp Spec, traceID string, nodes []*node) *Sweep {
	ctx, cancel := context.WithCancel(context.Background())
	sw := &Sweep{
		m:        m,
		id:       id,
		spec:     sp,
		traceID:  traceID,
		timeline: obs.NewTimeline(timelineCapacity),
		ctx:      ctx,
		cancel:   cancel,
		state:    StatePending,
		nodes:    nodes,
		byID:     make(map[string]*node, len(nodes)),
		watchers: make(map[int]chan struct{}),
		kick:     make(chan struct{}, 1),
	}
	for _, n := range nodes {
		sw.byID[n.id] = n
	}
	return sw
}

// Get returns the sweep with the given id.
func (m *Manager) Get(id string) (*Sweep, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sw, ok := m.sweeps[id]
	return sw, ok
}

// Sweeps returns every sweep in submission order.
func (m *Manager) Sweeps() []*Sweep {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Sweep, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.sweeps[id])
	}
	return out
}

// Cancel aborts a non-terminal sweep: in-flight jobs are cancelled,
// pending nodes are skipped.
func (m *Manager) Cancel(id string) error {
	sw, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSweep, id)
	}
	if !sw.abortWith(StateCancelled, "cancelled by request") {
		return fmt.Errorf("sweep: %s already %s", id, sw.State())
	}
	return nil
}

// Stop freezes execution for shutdown: contexts are cancelled, run
// goroutines drain, and non-terminal sweeps keep their manifest states
// (running job nodes stay attached to their job ids) so a new Manager
// over the same dirs resumes them. Stop the sweep manager before the
// job manager.
func (m *Manager) Stop() {
	if m.stopping.Swap(true) {
		return
	}
	m.mu.Lock()
	sweeps := make([]*Sweep, 0, len(m.order))
	for _, id := range m.order {
		sweeps = append(sweeps, m.sweeps[id])
	}
	m.mu.Unlock()
	for _, sw := range sweeps {
		sw.cancel()
	}
	m.wg.Wait()
	for _, sw := range sweeps {
		if !sw.State().Terminal() {
			m.persist(sw)
		}
	}
}

// StateCounts tallies sweeps by lifecycle state (the
// graphd_sweeps{state} metric).
func (m *Manager) StateCounts() map[State]int {
	out := map[State]int{}
	for _, sw := range m.Sweeps() {
		out[sw.State()]++
	}
	return out
}

// NodeCounts tallies DAG nodes by state across every sweep (the
// graphd_sweep_nodes{state} metric).
func (m *Manager) NodeCounts() map[NodeState]int {
	out := map[NodeState]int{}
	for _, sw := range m.Sweeps() {
		for st, c := range sw.Status().NodeCounts {
			out[st] += c
		}
	}
	return out
}

// ArtifactPath resolves a sweep's artifact file by its listed name,
// rejecting names the sweep did not write (which also blocks path
// traversal).
func (m *Manager) ArtifactPath(sweepID, name string) (string, error) {
	sw, ok := m.Get(sweepID)
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownSweep, sweepID)
	}
	for _, a := range sw.Status().Artifacts {
		if a.Name == name {
			return filepath.Join(m.artDir, sweepID, name), nil
		}
	}
	return "", fmt.Errorf("sweep: %s has no artifact %q", sweepID, name)
}

// Sweep is one planned DAG execution. All mutable state is guarded by
// mu; the scheduler goroutine owns the control flow.
type Sweep struct {
	m        *Manager
	id       string
	spec     Spec
	traceID  string
	timeline *obs.Timeline
	ctx      context.Context
	cancel   context.CancelFunc
	// kick wakes the scheduler loop; buffered so a settle never blocks.
	kick chan struct{}

	mu         sync.Mutex
	state      State
	nodes      []*node
	byID       map[string]*node
	artifacts  []ArtifactInfo
	checks     []CheckResult
	errMsg     string
	abortState State // terminal state an abort targets ("" = none)
	inflight   int
	version    int64
	watchers   map[int]chan struct{}
	nextWatch  int
}

// ID returns the sweep id.
func (sw *Sweep) ID() string { return sw.id }

// TraceID returns the sweep-wide trace id.
func (sw *Sweep) TraceID() string { return sw.traceID }

// State returns the sweep's lifecycle state.
func (sw *Sweep) State() State {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state
}

// Status returns the sweep's full status snapshot.
func (sw *Sweep) Status() Status {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statusLocked()
}

// StatusVersion returns the status snapshot plus a change counter —
// the level-triggered pair SSE handlers poll after Watch wakes.
func (sw *Sweep) StatusVersion() (Status, int64) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statusLocked(), sw.version
}

// Watch registers a wake channel signalled on every status change.
// Callers must invoke stop when done.
func (sw *Sweep) Watch() (wake <-chan struct{}, stop func()) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	id := sw.nextWatch
	sw.nextWatch++
	ch := make(chan struct{}, 1)
	sw.watchers[id] = ch
	return ch, func() {
		sw.mu.Lock()
		defer sw.mu.Unlock()
		delete(sw.watchers, id)
	}
}

// Trace returns the sweep's stage-event timeline.
func (sw *Sweep) Trace() Trace {
	return Trace{
		SweepID: sw.id,
		TraceID: sw.traceID,
		Events:  sw.timeline.Events(),
		Dropped: sw.timeline.Dropped(),
	}
}

// statusLocked renders the status snapshot. Callers hold sw.mu.
func (sw *Sweep) statusLocked() Status {
	st := Status{
		ID:         sw.id,
		State:      sw.state,
		Spec:       sw.spec,
		TraceID:    sw.traceID,
		Nodes:      make([]NodeStatus, len(sw.nodes)),
		NodeCounts: make(map[NodeState]int, 5),
		Artifacts:  append([]ArtifactInfo(nil), sw.artifacts...),
		Checks:     append([]CheckResult(nil), sw.checks...),
		ChecksPass: true,
		Error:      sw.errMsg,
	}
	for i, n := range sw.nodes {
		st.Nodes[i] = n.status()
		st.NodeCounts[n.state]++
	}
	for _, c := range sw.checks {
		if !c.Pass {
			st.ChecksPass = false
		}
	}
	return st
}

// notifyLocked bumps the version and wakes watchers. Callers hold
// sw.mu.
func (sw *Sweep) notifyLocked() {
	sw.version++
	for _, ch := range sw.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// kickNow wakes the scheduler loop.
func (sw *Sweep) kickNow() {
	select {
	case sw.kick <- struct{}{}:
	default:
	}
}

// abortWith requests a terminal state for the whole sweep (first abort
// wins) and cancels the context. Returns false when the sweep is
// already terminal or aborting.
func (sw *Sweep) abortWith(state State, reason string) bool {
	sw.mu.Lock()
	if sw.state.Terminal() || sw.abortState != "" {
		sw.mu.Unlock()
		return false
	}
	sw.abortState = state
	sw.errMsg = reason
	sw.mu.Unlock()
	sw.timeline.Record("sweep/abort", reason)
	sw.cancel()
	return true
}

// abortReason reads the recorded abort reason.
func (sw *Sweep) abortReason() string {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.errMsg
}

// run is the scheduler: start every runnable node, execute ready
// aggregation inline, wait for progress, finalize when all nodes are
// terminal. Exits without finalizing on manager shutdown so the
// manifest freezes in a resumable state.
func (sw *Sweep) run() {
	defer sw.m.wg.Done()
	sw.setState(StateRunning)
	sw.timeline.Record("sweep/start", fmt.Sprintf("%d nodes", len(sw.nodes)))
	for {
		select {
		case <-sw.ctx.Done():
			if sw.m.stopping.Load() {
				sw.drainInflight()
				return // frozen; a future Manager resumes from the manifest
			}
			sw.abortPending()
			sw.drainInflight()
			sw.finalize()
			return
		default:
		}
		ready := sw.startRunnable()
		for _, n := range ready {
			sw.runInlineNode(n)
		}
		if sw.allTerminal() {
			sw.finalize()
			return
		}
		select {
		case <-sw.kick:
		case <-sw.ctx.Done():
		}
	}
}

// setState transitions the sweep lifecycle state.
func (sw *Sweep) setState(s State) {
	sw.mu.Lock()
	if sw.state != s {
		sw.state = s
		sw.notifyLocked()
	}
	sw.mu.Unlock()
}

// startRunnable launches every pending node whose dependencies are
// settled: job nodes spawn waiter goroutines up to the parallel bound;
// ready aggregation and figure nodes are returned for inline
// execution. Nodes with a non-done terminal dependency are skipped.
func (sw *Sweep) startRunnable() []*node {
	var inline []*node
	var started []*node
	var skipped bool
	sw.mu.Lock()
	for _, n := range sw.nodes {
		if n.state != NodePending {
			continue
		}
		if n.planSkip != "" {
			n.state = NodeSkipped
			n.err = n.planSkip
			skipped = true
			continue
		}
		ready, blockedBy := true, ""
		for _, dep := range n.deps {
			d := sw.byID[dep]
			if !d.state.Terminal() {
				ready = false
				break
			}
			if d.state != NodeDone {
				blockedBy = fmt.Sprintf("dependency %s %s", d.id, d.state)
			}
		}
		if !ready {
			continue
		}
		if blockedBy != "" {
			n.state = NodeSkipped
			n.err = blockedBy
			skipped = true
			continue
		}
		switch n.kind {
		case kindJob:
			if sw.inflight >= sw.spec.Parallel {
				continue
			}
			sw.inflight++
			n.state = NodeRunning
			started = append(started, n)
		default:
			n.state = NodeRunning
			inline = append(inline, n)
		}
	}
	if skipped {
		sw.notifyLocked()
	}
	sw.mu.Unlock()
	if skipped {
		sw.m.persist(sw)
	}
	for _, n := range started {
		go sw.runJobNode(n)
	}
	return inline
}

// allTerminal reports whether every node settled.
func (sw *Sweep) allTerminal() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, n := range sw.nodes {
		if !n.state.Terminal() {
			return false
		}
	}
	return true
}

// abortPending skips every still-pending node after an abort.
func (sw *Sweep) abortPending() {
	reason := "sweep aborted: " + sw.abortReason()
	sw.mu.Lock()
	for _, n := range sw.nodes {
		if n.state == NodePending {
			n.state = NodeSkipped
			n.err = reason
		}
	}
	sw.notifyLocked()
	sw.mu.Unlock()
}

// drainInflight waits for job-waiter goroutines to settle their nodes.
func (sw *Sweep) drainInflight() {
	for {
		sw.mu.Lock()
		n := sw.inflight
		sw.mu.Unlock()
		if n == 0 {
			return
		}
		<-sw.kick
	}
}

// finalize computes the sweep's terminal state, persists, and logs.
func (sw *Sweep) finalize() {
	sw.mu.Lock()
	final := sw.abortState
	if final == "" {
		final = StateDone
		for _, n := range sw.nodes {
			if n.state == NodeFailed {
				final = StateFailed
				if sw.errMsg == "" {
					sw.errMsg = fmt.Sprintf("node %s failed: %s", n.id, n.err)
				}
				break
			}
		}
	}
	sw.state = final
	errMsg := sw.errMsg
	sw.notifyLocked()
	sw.mu.Unlock()
	sw.timeline.Record("sweep/"+string(final), errMsg)
	sw.m.persist(sw)
	sw.m.log.Info("sweep finished", "sweep", sw.id, "state", string(final), "error", errMsg)
}

// runJobNode submits (or, on resume, reattaches to) the node's
// sampling job and waits for its terminal state.
func (sw *Sweep) runJobNode(n *node) {
	defer func() {
		sw.mu.Lock()
		sw.inflight--
		sw.mu.Unlock()
		sw.kickNow()
	}()

	var j *jobs.Job
	if n.jobID != "" {
		if prev, ok := sw.m.jobs.Get(n.jobID); ok {
			j = prev // resume: reattach to the requeued or finished job
		}
	}
	if j == nil {
		nj, err := sw.m.jobs.SubmitTrace(*n.jobSpec, sw.traceID)
		if err != nil {
			if sw.m.stopping.Load() {
				sw.revertToPending(n)
				return
			}
			sw.settleNode(n, NodeFailed, "submit: "+err.Error(), nil)
			return
		}
		j = nj
		sw.mu.Lock()
		n.jobID = j.ID()
		sw.notifyLocked()
		sw.mu.Unlock()
		sw.m.persist(sw)
	}

	wake, stopWatch := j.Watch()
	defer stopWatch()
	for {
		st, _ := j.StatusVersion()
		if st.State.Terminal() {
			if st.State == jobs.StateDone {
				jr, err := jobResultOf(j, st)
				if err != nil {
					sw.settleNode(n, NodeFailed,
						fmt.Sprintf("job %s: %s", st.ID, err), nil)
				} else {
					sw.settleNode(n, NodeDone, "", jr)
				}
			} else {
				sw.settleNode(n, NodeFailed,
					fmt.Sprintf("job %s %s: %s", st.ID, st.State, st.Error), nil)
			}
			return
		}
		select {
		case <-wake:
		case <-sw.ctx.Done():
			if sw.m.stopping.Load() {
				// Shutdown freeze: the node stays running with its job
				// id in the manifest; the job manager checkpoints the
				// job, and resume reattaches both.
				return
			}
			_ = sw.m.jobs.Cancel(j.ID())
			sw.settleNode(n, NodeFailed, "aborted: "+sw.abortReason(), nil)
			return
		}
	}
}

// jobResultOf extracts the aggregation inputs from a done job,
// sanitizing non-finite values JSON cannot carry (an undefined scalar
// estimate is dropped; aggregation maps it to 0 like the in-process
// suite). A done job without a live estimate report is an error, not a
// degraded result: every sweep job names an estimand and every done
// job publishes a final report, so a missing one (e.g. live state that
// could not rehydrate across a restart) would silently zero this run's
// contribution to the figure — fail the node loudly instead.
func jobResultOf(j *jobs.Job, st jobs.Status) (*jobResult, error) {
	jr := &jobResult{EdgeHash: st.EdgeHash}
	rep, _, ok := j.EstimateReport()
	if !ok {
		return nil, fmt.Errorf("done without a live estimate report (live state failed to rehydrate across a restart?)")
	}
	jr.Observations = rep.Observations
	if rep.Value != nil && !math.IsNaN(*rep.Value) && !math.IsInf(*rep.Value, 0) {
		v := *rep.Value
		jr.Value = &v
	}
	if rep.Vector != nil {
		vec := make([]float64, len(rep.Vector.Values))
		for i, v := range rep.Vector.Values {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vec[i] = v
			}
		}
		jr.Vector = vec
	}
	return jr, nil
}

// revertToPending undoes a node's running state during shutdown so the
// manifest re-runs it on resume.
func (sw *Sweep) revertToPending(n *node) {
	sw.mu.Lock()
	n.state = NodePending
	sw.mu.Unlock()
}

// settleNode records a node's terminal state plus its result, fans the
// failure policy out, persists, and wakes the scheduler. A result is
// encoded and written to its content-addressed file before the node
// flips to done, so no manifest ever advertises a digest whose file is
// not on disk.
func (sw *Sweep) settleNode(n *node, state NodeState, errMsg string, result any) {
	var raw json.RawMessage
	var digest string
	if result != nil {
		var err error
		if raw, err = json.Marshal(result); err != nil {
			state, errMsg, result = NodeFailed, "encode result: "+err.Error(), nil
		} else {
			digest = digestOf(raw)
			if err := sw.m.writeResult(sw.id, digest, raw); err != nil {
				state, errMsg, result = NodeFailed, fmt.Sprintf("write result %s: %v", digest, err), nil
			}
		}
	}
	failed := state == NodeFailed
	sw.mu.Lock()
	n.state = state
	n.err = errMsg
	if result != nil {
		n.result = raw
		n.digest = digest
	}
	if fr, ok := result.(*figResult); ok && n.state == NodeDone {
		sw.artifacts = append(sw.artifacts, fr.Artifacts...)
		sw.checks = append(sw.checks, fr.Checks...)
	}
	sw.notifyLocked()
	sw.mu.Unlock()

	sw.timeline.Record("node/"+string(n.state), n.id)
	if failed {
		sw.m.log.Warn("sweep node failed", "sweep", sw.id, "node", n.id, "error", errMsg)
		if sw.spec.OnError == FailFast {
			sw.abortWith(StateFailed, fmt.Sprintf("node %s failed: %s", n.id, errMsg))
		}
	}
	sw.m.persist(sw)
	sw.kickNow()
}

// runInlineNode executes an aggregation or figure node in the
// scheduler goroutine.
func (sw *Sweep) runInlineNode(n *node) {
	var result any
	var err error
	switch n.kind {
	case kindAggregate:
		result, err = sw.aggregate(n)
	case kindFigure:
		result, err = sw.figure(n)
	}
	if err != nil {
		sw.settleNode(n, NodeFailed, err.Error(), nil)
		return
	}
	sw.settleNode(n, NodeDone, "", result)
}

// depResults decodes the recorded results of a node's dependencies, in
// dependency order (fixed by the plan — the determinism anchor for
// aggregation).
func depResults[T any](sw *Sweep, n *node) ([]T, error) {
	out := make([]T, 0, len(n.deps))
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, dep := range n.deps {
		d := sw.byID[dep]
		var v T
		if err := json.Unmarshal(d.result, &v); err != nil {
			return nil, fmt.Errorf("sweep: decode result of %s: %w", dep, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// aggregate runs one per-method aggregation node.
func (sw *Sweep) aggregate(n *node) (any, error) {
	d, ok := defByID(n.artifact)
	if !ok {
		return nil, fmt.Errorf("sweep: node %s references unknown artifact", n.id)
	}
	results, err := depResults[jobResult](sw, n)
	if err != nil {
		return nil, err
	}
	g, gl, err := sw.m.graphs.Graph(sw.spec.Graph)
	if err != nil {
		return nil, fmt.Errorf("sweep: resolve graph for %s: %w", n.id, err)
	}
	var a aggResult
	if d.kind == artScalar {
		a = aggregateScalar(d, n.method, results, g)
	} else {
		a = aggregateVector(d, n.method, results, g, gl)
	}
	return &a, nil
}

// figure runs one figure node: assemble rows and checks from the
// method aggregates, then write the JSON and CSV artifacts.
func (sw *Sweep) figure(n *node) (any, error) {
	d, ok := defByID(n.artifact)
	if !ok {
		return nil, fmt.Errorf("sweep: node %s references unknown artifact", n.id)
	}
	aggs, err := depResults[aggResult](sw, n)
	if err != nil {
		return nil, err
	}
	g, _, err := sw.m.graphs.Graph(sw.spec.Graph)
	if err != nil {
		return nil, fmt.Errorf("sweep: resolve graph for %s: %w", n.id, err)
	}
	doc, jsonBytes, csvBytes, err := buildFigure(d, sw.spec, aggs, g)
	if err != nil {
		return nil, err
	}
	fr := &figResult{Checks: doc.Checks}
	dir := filepath.Join(sw.m.artDir, sw.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create artifact dir: %w", err)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{d.id + ".json", jsonBytes},
		{d.id + ".csv", csvBytes},
	} {
		if err := atomicWrite(filepath.Join(dir, f.name), f.data); err != nil {
			return nil, fmt.Errorf("sweep: write artifact %s: %w", f.name, err)
		}
		fr.Artifacts = append(fr.Artifacts, ArtifactInfo{
			Name:   f.name,
			Bytes:  int64(len(f.data)),
			SHA256: digestOf(f.data),
		})
		sw.timeline.Record("artifact/written", f.name)
	}
	return fr, nil
}

// atomicWrite writes data via a unique temp file in the target's
// directory + rename, so readers never see partial files and two
// concurrent writers of one path never share a temp name.
func atomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: the write error is what matters
	}
	return err
}

// --- manifest persistence ------------------------------------------------

// manifest is the persisted form of a sweep: spec plus per-node states
// and result digests. Results live in content-addressed files (see
// resultPath), written once each. The DAG itself is not stored —
// planning is deterministic from the spec, and resume merges these
// states into a fresh plan by node id.
type manifest struct {
	// ID is the sweep id (also the manifest file stem).
	ID string `json:"id"`
	// Spec is the normalized sweep spec.
	Spec Spec `json:"spec"`
	// State is the sweep lifecycle state at persist time.
	State State `json:"state"`
	// TraceID is the sweep-wide trace id.
	TraceID string `json:"trace_id,omitempty"`
	// Nodes holds per-node execution states in plan order.
	Nodes []manifestNode `json:"nodes"`
	// Artifacts lists the artifact files written so far.
	Artifacts []ArtifactInfo `json:"artifacts,omitempty"`
	// Checks lists the shape checks evaluated so far.
	Checks []CheckResult `json:"checks,omitempty"`
	// Error is the sweep-level error.
	Error string `json:"error,omitempty"`
}

// manifestNode is one node's persisted execution state.
type manifestNode struct {
	// ID is the node id from the deterministic plan.
	ID string `json:"id"`
	// State is the node's state at persist time.
	State NodeState `json:"state"`
	// JobID names the underlying sampling job, the resume reattach
	// handle.
	JobID string `json:"job_id,omitempty"`
	// Digest is the sha256 of a done node's result, which names its
	// result file.
	Digest string `json:"digest,omitempty"`
	// Error describes a failure or skip.
	Error string `json:"error,omitempty"`
}

// resultPath names the file holding a node result with the given
// digest. The per-sweep subdirectory keeps result files out of
// loadManifests' *.json scan.
func (m *Manager) resultPath(sweepID, digest string) string {
	return filepath.Join(m.dir, sweepID+".results", digest+".json")
}

// writeResult persists one node result under its digest (a no-op for
// an in-memory manager).
func (m *Manager) writeResult(sweepID, digest string, raw []byte) error {
	if m.dir == "" {
		return nil
	}
	path := m.resultPath(sweepID, digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicWrite(path, raw)
}

// readResult loads a done node's result file and checks that it hashes
// to the digest the manifest advertises.
func (m *Manager) readResult(sweepID, nodeID, digest string) (json.RawMessage, error) {
	if len(digest) != 64 || strings.Trim(digest, "0123456789abcdef") != "" {
		return nil, fmt.Errorf("node %s has malformed result digest %q", nodeID, digest)
	}
	raw, err := os.ReadFile(m.resultPath(sweepID, digest))
	if err != nil {
		return nil, fmt.Errorf("node %s result %s: %w", nodeID, digest, err)
	}
	if got := digestOf(raw); got != digest {
		return nil, fmt.Errorf("node %s result %s: file hashes to %s", nodeID, digest, got)
	}
	return raw, nil
}

// persist atomically writes the sweep's manifest.
func (m *Manager) persist(sw *Sweep) {
	if m.dir == "" {
		return
	}
	sw.mu.Lock()
	man := manifest{
		ID:        sw.id,
		Spec:      sw.spec,
		State:     sw.state,
		TraceID:   sw.traceID,
		Nodes:     make([]manifestNode, len(sw.nodes)),
		Artifacts: append([]ArtifactInfo(nil), sw.artifacts...),
		Checks:    append([]CheckResult(nil), sw.checks...),
		Error:     sw.errMsg,
	}
	for i, n := range sw.nodes {
		man.Nodes[i] = manifestNode{
			ID: n.id, State: n.state, JobID: n.jobID,
			Digest: n.digest, Error: n.err,
		}
	}
	sw.mu.Unlock()

	data, err := json.Marshal(man)
	if err != nil {
		m.log.Error("sweep manifest encode failed", "sweep", sw.id, "error", err)
		return
	}
	m.persistMu.Lock()
	defer m.persistMu.Unlock()
	if err := atomicWrite(filepath.Join(m.dir, sw.id+".json"), data); err != nil {
		m.log.Error("sweep manifest write failed", "sweep", sw.id, "error", err)
	}
}

// loadManifests restores persisted sweeps at construction, resuming
// the non-terminal ones.
func (m *Manager) loadManifests() error {
	if m.dir == "" {
		return nil
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return fmt.Errorf("sweep: read manifest dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(m.dir, name))
		if err != nil {
			return fmt.Errorf("sweep: read manifest %s: %w", name, err)
		}
		man, err := decodeManifest(name, data)
		if err != nil {
			return err
		}
		sw := m.restore(man)
		if !man.State.Terminal() && sw.state.Terminal() {
			// Failed at resume: nothing will reattach to the sweep's
			// in-flight jobs, and the failure must not be re-derived at
			// every restart.
			m.cancelInflight(man)
			m.persist(sw)
		}
		m.start(sw)
		if seq, ok := strings.CutPrefix(man.ID, "sweep-"); ok {
			if v, err := strconv.Atoi(seq); err == nil && v > m.nextID {
				m.nextID = v
			}
		}
	}
	return nil
}

// decodeManifest parses the manifest stored in the file name.
func decodeManifest(name string, data []byte) (manifest, error) {
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return manifest{}, fmt.Errorf("sweep: decode manifest %s: %w", name, err)
	}
	if man.ID == "" || man.ID != strings.TrimSuffix(name, ".json") {
		return manifest{}, fmt.Errorf("sweep: manifest %s has mismatched id %q", name, man.ID)
	}
	return man, nil
}

// restore rebuilds one sweep from its manifest: re-plan from the spec
// and merge the persisted node states in by id. Previously running job
// nodes come back as pending with their job id kept, so the scheduler
// reattaches instead of resubmitting. A sweep that will run again
// loads its done nodes' result files; a spec that no longer plans (the
// hosted graph vanished), a missing or corrupted result file, or an
// unknown node state ends it failed with a "resume:" error instead, and
// its record survives.
func (m *Manager) restore(man manifest) *Sweep {
	var nodes []*node
	g, gl, err := m.graphs.Graph(man.Spec.Graph)
	if err == nil {
		if sp, nerr := m.normalize(man.Spec); nerr != nil || sp != man.Spec {
			err = fmt.Errorf("manifest spec %+v is not a normalized spec", man.Spec)
		} else {
			nodes, err = plan(man.Spec, g, gl)
		}
	}
	sw := m.newSweep(man.ID, man.Spec, man.TraceID, nodes)
	sw.state = man.State
	sw.artifacts = man.Artifacts
	sw.checks = man.Checks
	sw.errMsg = man.Error
	resuming := !man.State.Terminal()
	for _, mn := range man.Nodes {
		n, ok := sw.byID[mn.ID]
		if !ok {
			continue
		}
		n.jobID = mn.JobID
		switch mn.State {
		case NodePending, NodeRunning:
			n.state = NodePending // reattach via jobID on restart
		case NodeDone, NodeFailed, NodeSkipped:
			n.state = mn.State
			n.err = mn.Error
			n.digest = mn.Digest
			if mn.State == NodeDone && resuming && err == nil {
				n.result, err = m.readResult(man.ID, mn.ID, mn.Digest)
			}
		default:
			if err == nil {
				err = fmt.Errorf("node %s has unknown state %q", mn.ID, mn.State)
			}
		}
	}
	if err != nil && resuming {
		sw.state = StateFailed
		sw.errMsg = "resume: " + err.Error()
	}
	return sw
}

// cancelInflight cancels the jobs a manifest's pending and running
// nodes were attached to.
func (m *Manager) cancelInflight(man manifest) {
	for _, mn := range man.Nodes {
		if mn.JobID != "" && (mn.State == NodePending || mn.State == NodeRunning) {
			// A job that already ended, or that the job manager no
			// longer holds, has nothing left to stop.
			_ = m.jobs.Cancel(mn.JobID)
		}
	}
}

// start registers a restored sweep and restarts its scheduler when it
// is not terminal.
func (m *Manager) start(sw *Sweep) {
	m.mu.Lock()
	m.sweeps[sw.id] = sw
	m.order = append(m.order, sw.id)
	m.mu.Unlock()
	if !sw.state.Terminal() {
		sw.timeline.Record("sweep/resumed", fmt.Sprintf("%d nodes", len(sw.nodes)))
		m.log.Info("sweep resumed", "sweep", sw.id, "artifact", sw.spec.Artifact)
		m.wg.Add(1)
		go sw.run()
	}
}
