package jobs

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"frontier/internal/core"
	"frontier/internal/crawl"
	"frontier/internal/gen"
	"frontier/internal/graph"
	"frontier/internal/live"
	"frontier/internal/xrand"
)

func testGraph(seed uint64) *graph.Graph {
	return gen.BarabasiAlbert(xrand.New(seed), 2000, 3)
}

// waitStatus polls until pred holds or the deadline passes.
func waitStatus(t *testing.T, j *Job, pred func(Status) bool, what string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := j.Status()
		if pred(st) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last status %+v", what, j.Status())
	return Status{}
}

func waitDone(t *testing.T, j *Job) Status {
	t.Helper()
	st := waitStatus(t, j, func(s Status) bool { return s.State.Terminal() }, "terminal state")
	if st.State != StateDone {
		t.Fatalf("job %s ended %s (%s), want done", st.ID, st.State, st.Error)
	}
	return st
}

// directRun reproduces a job's exact computation in-process: same
// sampler, same session, same live-runtime arithmetic, same hash.
func directRun(t *testing.T, g *graph.Graph, sp Spec) Status {
	t.Helper()
	sp.normalize()
	method, err := DefaultMethods().resolve(sp.Method)
	if err != nil {
		t.Fatal(err)
	}
	sampler := method.Build(sp)
	sess := crawl.NewSession(g, sp.Budget, crawl.UnitCosts(), xrand.New(sp.Seed))
	rt, err := newRuntime(sp, g)
	if err != nil {
		t.Fatal(err)
	}
	tracker, _ := sampler.(core.WalkerTracker)
	var edges int64
	var hash uint64 = fnvOffset
	if err := sampler.RunObs(sess, func(o core.Observation) {
		hash = hashEdge(hash, o.U, o.V)
		edges++
		walker := 0
		if tracker != nil {
			walker = tracker.LastWalker()
		}
		rt.ObserveSample(walker, o)
	}); err != nil {
		t.Fatal(err)
	}
	est := rt.Estimator().Value()
	st := Status{Edges: edges, EdgeHash: fmt.Sprintf("%016x", hash), Spent: sess.Stats().Spent}
	if !math.IsNaN(est) {
		st.Estimate = &est
	}
	return st
}

// TestConcurrentJobsIndependentEstimates is the acceptance test: 8
// concurrent jobs through a 4-worker pool over one shared graph, all
// finishing with correct, independent estimates — each identical to an
// uninterrupted in-process run with the same seed.
func TestConcurrentJobsIndependentEstimates(t *testing.T) {
	g := testGraph(1)
	m, err := NewManager(g, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	specs := make([]Spec, 8)
	js := make([]*Job, 8)
	for i := range specs {
		method := []string{"fs", "dfs", "single", "multiple"}[i%4]
		est := "avgdegree"
		if i%2 == 1 {
			est = "clustering"
		}
		specs[i] = Spec{Method: method, M: 8, Budget: 3000, Seed: uint64(100 + i), Estimate: est}
		j, err := m.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		js[i] = j
	}
	for i, j := range js {
		got := waitDone(t, j)
		want := directRun(t, g, specs[i])
		if got.Edges != want.Edges || got.EdgeHash != want.EdgeHash {
			t.Fatalf("job %d (%s): %d edges hash %s, direct run %d edges hash %s",
				i, specs[i].Method, got.Edges, got.EdgeHash, want.Edges, want.EdgeHash)
		}
		if got.Estimate == nil || want.Estimate == nil {
			t.Fatalf("job %d: missing estimate (%v vs %v)", i, got.Estimate, want.Estimate)
		}
		if *got.Estimate != *want.Estimate {
			t.Fatalf("job %d: estimate %v, direct run %v", i, *got.Estimate, *want.Estimate)
		}
		if got.Spent != want.Spent {
			t.Fatalf("job %d: spent %v, direct run %v", i, got.Spent, want.Spent)
		}
	}
	if n := m.ActiveJobs(); n != 0 {
		t.Fatalf("ActiveJobs = %d after all jobs finished", n)
	}
}

// slowSource wraps a Source, throttling neighbor queries so tests can
// interrupt a run mid-flight deterministically. It deliberately does
// not implement BatchSource or EdgeView.
type slowSource struct {
	g     crawl.Source
	delay time.Duration
}

func (s *slowSource) NumVertices() int    { return s.g.NumVertices() }
func (s *slowSource) SymDegree(v int) int { return s.g.SymDegree(v) }
func (s *slowSource) SymNeighbor(v, i int) int {
	time.Sleep(s.delay)
	return s.g.SymNeighbor(v, i)
}

// TestCancelFreesWorker cancels a long job on a single-worker pool and
// checks the worker promptly picks up the next job, unaffected.
func TestCancelFreesWorker(t *testing.T) {
	g := testGraph(2)
	slow := &slowSource{g: g, delay: 500 * time.Microsecond}
	m, err := NewManager(slow, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	long, err := m.Submit(Spec{Method: "single", Budget: 1e6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := m.Submit(Spec{Method: "single", Budget: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, long, func(s Status) bool { return s.State == StateRunning }, "long job running")
	if err := m.Cancel(long.ID()); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, long, func(s Status) bool { return s.State == StateCancelled }, "long job cancelled")
	st := waitDone(t, quick)
	want := directRun(t, g, Spec{Method: "single", Budget: 50, Seed: 4})
	if st.EdgeHash != want.EdgeHash {
		t.Fatalf("quick job after cancel: hash %s, want %s", st.EdgeHash, want.EdgeHash)
	}
}

// TestPauseRestartResumeDeterminism is the acceptance test for the
// checkpoint path: a job paused mid-run, its manager stopped, and a new
// manager started over the same checkpoint directory (a graphd restart)
// finishes with exactly the edge count, sequence hash, budget and
// estimate of an uninterrupted run.
func TestPauseRestartResumeDeterminism(t *testing.T) {
	g := testGraph(5)
	spec := Spec{Method: "fs", M: 16, Budget: 4000, Seed: 9, CheckpointEvery: 64}
	want := directRun(t, g, spec)

	dir := t.TempDir()
	slow := &slowSource{g: g, delay: 100 * time.Microsecond}
	m1, err := NewManager(slow, WithWorkers(1), WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it pass at least one checkpoint, then pause and shut down.
	waitStatus(t, j, func(s Status) bool { return s.Edges >= 64 }, "first checkpoint")
	if err := m1.Pause(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, func(s Status) bool { return s.State == StatePaused }, "paused")
	mid := j.Status()
	if mid.Edges >= want.Edges {
		t.Fatalf("job already finished (%d edges) before pause; can't test resume", mid.Edges)
	}
	m1.Stop()

	// "Restart graphd": a fresh manager over the same directory requeues
	// the paused job automatically and runs it to completion.
	m2, err := NewManager(slow, WithWorkers(1), WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatalf("job %s not reloaded from %s", j.ID(), dir)
	}
	got := waitDone(t, j2)
	if got.Edges != want.Edges || got.EdgeHash != want.EdgeHash {
		t.Fatalf("resumed run: %d edges hash %s; uninterrupted: %d edges hash %s",
			got.Edges, got.EdgeHash, want.Edges, want.EdgeHash)
	}
	if *got.Estimate != *want.Estimate {
		t.Fatalf("resumed estimate %v, uninterrupted %v", *got.Estimate, *want.Estimate)
	}
	if got.Spent != want.Spent {
		t.Fatalf("resumed spent %v, uninterrupted %v", got.Spent, want.Spent)
	}
}

// TestStopRequeuesRunningJobs: stopping a manager checkpoints running
// jobs; a successor finishes them correctly.
func TestStopRequeuesRunningJobs(t *testing.T) {
	g := testGraph(6)
	spec := Spec{Method: "multiple", M: 4, Budget: 3000, Seed: 11, CheckpointEvery: 32}
	want := directRun(t, g, spec)

	dir := t.TempDir()
	slow := &slowSource{g: g, delay: 100 * time.Microsecond}
	m1, err := NewManager(slow, WithWorkers(2), WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, func(s Status) bool { return s.Edges >= 32 }, "first checkpoint")
	m1.Stop() // pauses the running job at its next step boundary

	m2, err := NewManager(slow, WithWorkers(2), WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatal("job lost across restart")
	}
	got := waitDone(t, j2)
	if got.EdgeHash != want.EdgeHash || got.Edges != want.Edges {
		t.Fatalf("restart run diverged: %d edges %s vs %d edges %s",
			got.Edges, got.EdgeHash, want.Edges, want.EdgeHash)
	}
}

func TestSubmitValidation(t *testing.T) {
	g := testGraph(7)
	m, err := NewManager(g, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	for _, sp := range []Spec{
		{Method: "bogus", Budget: 10},
		{Method: "fs", Budget: 0},
		{Method: "fs", Budget: 10, Estimate: "nonsense"},
	} {
		if _, err := m.Submit(sp); err == nil {
			t.Fatalf("spec %+v must be rejected", sp)
		}
	}
	// Clustering needs an EdgeView; a bare Source cannot serve it.
	bare, err := NewManager(&slowSource{g: g}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Stop()
	if _, err := bare.Submit(Spec{Method: "fs", Budget: 10, Estimate: "clustering"}); err == nil {
		t.Fatal("clustering over a bare Source must be rejected")
	}
}

func TestStateMachineEdges(t *testing.T) {
	g := testGraph(8)
	m, err := NewManager(g, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel("job-999999"); err == nil {
		t.Fatal("cancelling an unknown job must error")
	}
	j, err := m.Submit(Spec{Method: "single", Budget: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	// Terminal jobs: cancel is a no-op, pause/resume are errors.
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if got := j.Status(); got.State != StateDone {
		t.Fatalf("cancel of done job changed state to %s", got.State)
	}
	if err := m.Pause(j.ID()); err == nil {
		t.Fatal("pausing a done job must error")
	}
	if err := m.Resume(j.ID()); err == nil {
		t.Fatal("resuming a done job must error")
	}
	if st.Edges == 0 {
		t.Fatal("done job sampled nothing")
	}
	m.Stop()
	if _, err := m.Submit(Spec{Method: "single", Budget: 10}); err != ErrStopped {
		t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
	}
}

// TestJobsAreResumableSamplersOnly pins that every registered method
// builds a core.ObservationSampler (compile-time via Method.Build's
// return type) and that the default registry carries the paper's full
// comparison set.
func TestJobsAreResumableSamplersOnly(t *testing.T) {
	want := []string{"dfs", "fs", "jump", "mhrw", "multiple", "re", "rv", "single"}
	got := DefaultMethods().Names()
	if len(got) != len(want) {
		t.Fatalf("DefaultMethods().Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefaultMethods().Names() = %v, want %v", got, want)
		}
	}
	for _, method := range got {
		m, ok := DefaultMethods().Get(method)
		if !ok {
			t.Fatalf("%s: not registered", method)
		}
		var s core.ObservationSampler = m.Build(Spec{Method: method, M: 2, JumpProb: 0.1})
		if s == nil {
			t.Fatalf("%s: no sampler", method)
		}
	}
}

// TestTraceStartsQueuedRunning submits many tiny jobs to a wide pool,
// so workers take jobs the moment they are queued: every trace must
// still begin queued, then running.
func TestTraceStartsQueuedRunning(t *testing.T) {
	m, err := NewManager(testGraph(7), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	js := make([]*Job, 200)
	for i := range js {
		if js[i], err = m.Submit(Spec{Method: "single", Budget: 10, Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range js {
		waitDone(t, j)
		ev := j.Trace().Events
		if len(ev) < 2 || ev[0].Name != "queued" || ev[1].Name != "running" {
			t.Fatalf("job %s trace starts %v, want [queued running ...]", j.ID(), ev)
		}
	}
}

// gatedResolver serves one source and counts pins and releases. Every
// second Resolve signals entered and blocks until the test sends on
// (or closes) proceed: with one worker, Submit's validation is the free
// call and the worker's pin the gated one.
type gatedResolver struct {
	src      crawl.Source
	entered  chan struct{}
	proceed  chan struct{}
	calls    atomic.Int32
	released atomic.Int32
}

func (r *gatedResolver) Resolve(string) (crawl.Source, func(), error) {
	if r.calls.Add(1)%2 == 0 {
		r.entered <- struct{}{}
		<-r.proceed
	}
	return r.src, func() { r.released.Add(1) }, nil
}

// TestJobRunsOnlyOncePinned holds the worker inside Resolve: the job
// must not read running before its graph is pinned, and a job cancelled
// during the resolve is skipped with its pin released.
func TestJobRunsOnlyOncePinned(t *testing.T) {
	r := &gatedResolver{src: testGraph(8), entered: make(chan struct{}, 2), proceed: make(chan struct{})}
	m, err := NewManager(nil, WithResolver(r), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	defer close(r.proceed) // a failed check must not leave the worker gated

	cancelled, err := m.Submit(Spec{Method: "single", Budget: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-r.entered
	if st := cancelled.Status(); st.State != StateQueued {
		t.Fatalf("state while the graph resolves = %s, want queued", st.State)
	}
	if err := m.Cancel(cancelled.ID()); err != nil {
		t.Fatal(err)
	}
	r.proceed <- struct{}{}

	j, err := m.Submit(Spec{Method: "single", Budget: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-r.entered
	if st := j.Status(); st.State != StateQueued {
		t.Fatalf("state while the graph resolves = %s, want queued", st.State)
	}
	r.proceed <- struct{}{}
	waitDone(t, j)
	m.Stop() // waits for the worker to release the last pin
	if st := cancelled.Status(); st.State != StateCancelled {
		t.Fatalf("job cancelled while resolving ended %s", st.State)
	}
	if calls, released := r.calls.Load(), r.released.Load(); calls != 4 || released != calls {
		t.Fatalf("resolves = %d, releases = %d, want 4 and 4", calls, released)
	}
}

// TestSubmitValidationEnumeratesEstimators: the unknown-estimate error
// is driven by the live registry and names every registered estimator.
func TestSubmitValidationEnumeratesEstimators(t *testing.T) {
	g := testGraph(9)
	m, err := NewManager(g, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	_, err = m.Submit(Spec{Method: "fs", Budget: 10, Estimate: "nonsense"})
	if err == nil {
		t.Fatal("unknown estimate must be rejected")
	}
	for _, name := range live.Default().Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("estimate error %q does not enumerate %q", err, name)
		}
	}
	// A bad stop rule is rejected at submission too.
	if _, err := m.Submit(Spec{Method: "fs", Budget: 10, StopRule: "ess<=1"}); err == nil {
		t.Fatal("wrong-direction stop rule must be rejected")
	}
}

// TestBatchedDriveMatchesDirectRun pins the manager's batched drive:
// every method without walker attribution (driven through
// RunObsBatch) finishes with the edge count, FNV hash, estimate and
// budget spend of an unbatched in-process run with the same seed —
// the jobs-layer face of the core equivalence contract. Budgets are
// sized to cross slab boundaries so multi-slab emission is exercised.
func TestBatchedDriveMatchesDirectRun(t *testing.T) {
	g := testGraph(2)
	m, err := NewManager(g, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	specs := []Spec{
		{Method: "single", Budget: 2000, Seed: 201, Estimate: "clustering"},
		{Method: "mhrw", Budget: 2000, Seed: 202, Estimate: "avgdegree"},
		{Method: "rv", Budget: 1500, Seed: 203, Estimate: "avgdegree"},
		{Method: "re", Budget: 2400, Seed: 204, Estimate: "clustering"},
		{Method: "jump", JumpProb: 0.15, Budget: 2000, Seed: 205, Estimate: "avgdegree"},
	}
	for _, sp := range specs {
		t.Run(sp.Method, func(t *testing.T) {
			method, err := DefaultMethods().resolve(sp.Method)
			if err != nil {
				t.Fatal(err)
			}
			if method.UsesWalkers {
				t.Fatalf("method %s tracks walkers; it belongs in the per-observation drive", sp.Method)
			}
			j, err := m.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			got := waitDone(t, j)
			want := directRun(t, g, sp)
			if got.Edges != want.Edges || got.EdgeHash != want.EdgeHash {
				t.Fatalf("batched job: %d observations hash %s, direct unbatched run %d hash %s",
					got.Edges, got.EdgeHash, want.Edges, want.EdgeHash)
			}
			if got.Estimate == nil || want.Estimate == nil || *got.Estimate != *want.Estimate {
				t.Fatalf("estimate %v, direct run %v", got.Estimate, want.Estimate)
			}
			if got.Spent != want.Spent {
				t.Fatalf("spent %v, direct run %v", got.Spent, want.Spent)
			}
		})
	}
}

// TestRestoredDoneJobKeepsEstimateReport: a done job reloaded from its
// checkpoint must still answer EstimateReport with the exact report it
// published as it finished — the done checkpoint carries the final
// live-runtime state, and rehydrating it is what keeps the estimates
// endpoint and sweep reattachment working across a process restart.
// Before this was fixed, a restored done job reported "no estimates
// yet", and a sweep resuming across a hard restart silently aggregated
// its figure without the job's estimand vector.
func TestRestoredDoneJobKeepsEstimateReport(t *testing.T) {
	g := testGraph(11)
	spec := Spec{Method: "multiple", M: 2, Budget: 40, Seed: 17, Estimate: "degreedist"}

	dir := t.TempDir()
	m1, err := NewManager(g, WithWorkers(1), WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	want, wantSeq, ok := j.EstimateReport()
	if !ok || want.Vector == nil {
		t.Fatalf("pre-restart report = (%+v, %v); want a vector report", want, ok)
	}
	m1.Stop()

	m2, err := NewManager(g, WithWorkers(1), WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	j2, found := m2.Get(j.ID())
	if !found {
		t.Fatalf("job %s not reloaded from %s", j.ID(), dir)
	}
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("reloaded job state %s, want done", st.State)
	}
	got, gotSeq, ok := j2.EstimateReport()
	if !ok {
		t.Fatal("reloaded done job has no estimate report")
	}
	if gotSeq != wantSeq {
		t.Fatalf("estimate-update counter %d, want %d (rehydration must not bump it)", gotSeq, wantSeq)
	}
	if got.Observations != want.Observations || !reflect.DeepEqual(got.Vector, want.Vector) {
		t.Fatalf("rehydrated report differs:\n got %+v\nwant %+v", got, want)
	}
	if (got.Value == nil) != (want.Value == nil) || (got.Value != nil && *got.Value != *want.Value) {
		t.Fatalf("rehydrated value %v, want %v", got.Value, want.Value)
	}
}
