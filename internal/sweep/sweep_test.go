package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frontier/internal/crawl"
	"frontier/internal/gen"
	"frontier/internal/graph"
	"frontier/internal/jobs"
	"frontier/internal/xrand"
)

// testSource serves one fixed graph under every name.
type testSource struct {
	g  *graph.Graph
	gl *graph.GroupLabels
}

func (s testSource) Graph(string) (*graph.Graph, *graph.GroupLabels, error) {
	return s.g, s.gl, nil
}

// slowSource throttles symmetric-degree queries so sampling jobs stay
// in flight long enough for interruption tests to catch them mid-run.
type slowSource struct {
	g     *graph.Graph
	delay time.Duration
}

func (s *slowSource) NumVertices() int { return s.g.NumVertices() }
func (s *slowSource) SymDegree(v int) int {
	time.Sleep(s.delay)
	return s.g.SymDegree(v)
}
func (s *slowSource) SymNeighbor(v, i int) int { return s.g.SymNeighbor(v, i) }

func normalized(t *testing.T, m *Manager, sp Spec) Spec {
	t.Helper()
	out, err := m.normalize(sp)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return out
}

// startPlanned is the test seam behind SubmitTrace: it registers and
// runs a sweep whose nodes the test may have edited (e.g. an invalid
// job spec to force a node failure).
func startPlanned(m *Manager, sp Spec, nodes []*node) *Sweep {
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("sweep-%06d", m.nextID)
	sw := m.newSweep(id, sp, "test-trace", nodes)
	m.sweeps[id] = sw
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.persist(sw)
	m.wg.Add(1)
	go sw.run()
	return sw
}

func waitTerminal(t testing.TB, sw *Sweep, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	wake, stop := sw.Watch()
	defer stop()
	for {
		st := sw.Status()
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s: counts %v", st.ID, st.State, st.NodeCounts)
		}
		select {
		case <-wake:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func nodeByID(t *testing.T, st Status, id string) NodeStatus {
	t.Helper()
	for _, n := range st.Nodes {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("status has no node %q", id)
	return NodeStatus{}
}

func TestPlanFig5Shape(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(3), 500, 3)
	sp := Spec{Artifact: "fig5", Seed: 1, Runs: 3, Parallel: 2, OnError: FailFast}
	nodes, err := plan(sp, g, nil)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	// 3 methods × 3 runs + 3 aggregations + 1 figure.
	if len(nodes) != 13 {
		t.Fatalf("fig5 plan has %d nodes, want 13", len(nodes))
	}
	byID := map[string]*node{}
	for _, n := range nodes {
		byID[n.id] = n
	}
	fig := byID["fig5/figure"]
	if fig == nil || fig.kind != kindFigure || fig.level != 2 {
		t.Fatalf("missing or malformed figure node: %+v", fig)
	}
	if want := []string{"fig5/agg/fs", "fig5/agg/single", "fig5/agg/multiple"}; len(fig.deps) != 3 ||
		fig.deps[0] != want[0] || fig.deps[1] != want[1] || fig.deps[2] != want[2] {
		t.Fatalf("figure deps = %v, want %v", fig.deps, want)
	}
	agg := byID["fig5/agg/fs"]
	if agg == nil || agg.kind != kindAggregate || len(agg.deps) != 3 {
		t.Fatalf("malformed fs aggregation node: %+v", agg)
	}
	jb := byID["fig5/fs/run002"]
	if jb == nil || jb.kind != kindJob || jb.jobSpec == nil {
		t.Fatalf("malformed job node: %+v", jb)
	}
	if jb.jobSpec.Method != "fs" || jb.jobSpec.Estimate != "degreedist" {
		t.Fatalf("job spec = %+v", jb.jobSpec)
	}
	if want := 8.0; jb.jobSpec.Budget != want { // max(500/100, minBudget)
		t.Fatalf("budget = %v, want %v", jb.jobSpec.Budget, want)
	}
	// Seeds must differ across runs and methods.
	seen := map[uint64]string{}
	for _, n := range nodes {
		if n.kind != kindJob {
			continue
		}
		if prev, dup := seen[n.jobSpec.Seed]; dup {
			t.Fatalf("seed collision between %s and %s", prev, n.id)
		}
		seen[n.jobSpec.Seed] = n.id
	}
}

func TestPlanAllSkipsGrouplessGroupArtifacts(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(3), 300, 3)
	sp := Spec{Artifact: "all", Seed: 1, Runs: 2, Parallel: 2, OnError: FailFast}
	nodes, err := plan(sp, g, nil)
	if err != nil {
		t.Fatalf("plan all: %v", err)
	}
	var fig14 *node
	for _, n := range nodes {
		if n.artifact == "fig14" {
			if n.kind != kindFigure {
				t.Fatalf("groupless fig14 planned a %s node %s; want only the skipped figure", n.kind, n.id)
			}
			fig14 = n
		}
	}
	if fig14 == nil || fig14.planSkip == "" {
		t.Fatalf("plan \"all\" on a groupless graph should keep fig14 visible as a planned skip, got %+v", fig14)
	}
}

func TestPlanErrors(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(3), 300, 3)
	sp := Spec{Artifact: "fig14", Seed: 1, Runs: 2, Parallel: 1, OnError: FailFast}
	if _, err := plan(sp, g, nil); err == nil || !strings.Contains(err.Error(), "group labels") {
		t.Fatalf("explicit groupless fig14 error = %v", err)
	}
	sp.Artifact = "nope"
	if _, err := plan(sp, g, nil); err == nil || !strings.Contains(err.Error(), "unknown artifact") {
		t.Fatalf("unknown artifact error = %v", err)
	}
	sp.Artifact = "table4"
	if _, err := plan(sp, g, nil); err == nil || !strings.Contains(err.Error(), "not sweep-runnable") {
		t.Fatalf("unsupported artifact error = %v", err)
	}
}

func TestSupportedPartitionsRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range Supported() {
		if UnsupportedReason(id) != "" {
			t.Errorf("artifact %s is both supported and unsupported", id)
		}
		seen[id] = true
	}
	for id := range unsupported {
		if seen[id] {
			t.Errorf("artifact %s is both supported and unsupported", id)
		}
	}
}

func TestCcdfToDensity(t *testing.T) {
	theta := ccdfToDensity([]float64{0.6, 0.1}, 4)
	want := []float64{0.4, 0.5, 0.1, 0}
	for i := range want {
		if diff := theta[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("theta = %v, want %v", theta, want)
		}
	}
}

// newTestManagers builds a jobs manager over src and a sweep manager
// over it, rooted in fresh temp dirs.
func newTestManagers(t testing.TB, src crawl.Source, g *graph.Graph, gl *graph.GroupLabels, workers int) (*jobs.Manager, *Manager) {
	t.Helper()
	jm, err := jobs.NewManager(src, jobs.WithWorkers(workers))
	if err != nil {
		t.Fatalf("jobs manager: %v", err)
	}
	t.Cleanup(jm.Stop)
	root := t.TempDir()
	m, err := NewManager(jm, testSource{g: g, gl: gl},
		WithDir(filepath.Join(root, "sweeps")),
		WithArtifactDir(filepath.Join(root, "artifacts")))
	if err != nil {
		t.Fatalf("sweep manager: %v", err)
	}
	t.Cleanup(m.Stop)
	return jm, m
}

// TestSweepFig5Smoke is the end-to-end acceptance run: a fig5 sweep on
// the Flickr stand-in at its reproduction scale (1) must complete
// every node and pass the paper's shape checks, with both artifact
// files on disk matching their advertised digests and a digest-only
// manifest. It runs sweep seeds 1–3, so a pass does not hinge on one
// lucky seed: at scale 0.1 the B=|V|/100 budget is 40 steps and the
// FS-beats-MultipleRW check passes for seed 1 but fails for seeds 2
// and 3, while at scale 1 it passes for every seed tried (1–24).
func TestSweepFig5Smoke(t *testing.T) {
	ds := gen.FlickrLike(xrand.New(1), 1)
	_, m := newTestManagers(t, ds.Graph, ds.Graph, ds.Groups, 8)
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkFig5Sweep(t, m, seed)
		})
	}
}

// checkFig5Sweep runs one fig5 sweep under the given seed and checks
// its outcome, artifacts, persisted state and trace.
func checkFig5Sweep(t *testing.T, m *Manager, seed uint64) {
	t.Helper()
	sw, err := m.Submit(Spec{Artifact: "fig5", Seed: seed})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitTerminal(t, sw, 3*time.Minute)
	if st.State != StateDone {
		t.Fatalf("sweep %s: error %q, counts %v", st.State, st.Error, st.NodeCounts)
	}
	if st.NodeCounts[NodeDone] != len(st.Nodes) {
		t.Fatalf("not all nodes done: %v", st.NodeCounts)
	}
	if !st.ChecksPass || len(st.Checks) == 0 {
		t.Fatalf("shape checks failed: %+v", st.Checks)
	}
	if len(st.Artifacts) != 2 {
		t.Fatalf("artifacts = %+v, want fig5.json and fig5.csv", st.Artifacts)
	}
	for _, a := range st.Artifacts {
		path, err := m.ArtifactPath(sw.ID(), a.Name)
		if err != nil {
			t.Fatalf("artifact path %s: %v", a.Name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", a.Name, err)
		}
		if got := digestOf(data); got != a.SHA256 {
			t.Fatalf("artifact %s digest %s, advertised %s", a.Name, got, a.SHA256)
		}
		if int64(len(data)) != a.Bytes {
			t.Fatalf("artifact %s is %d bytes, advertised %d", a.Name, len(data), a.Bytes)
		}
	}
	checkPersisted(t, m, st)
	raw, err := os.ReadFile(filepath.Join(m.artDir, sw.ID(), "fig5.json"))
	if err != nil {
		t.Fatalf("read artifact: %v", err)
	}
	var doc figureDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode artifact: %v", err)
	}
	if doc.ID != "fig5" || len(doc.Rows) == 0 || len(doc.Checks) != 2 {
		t.Fatalf("artifact doc: id=%q rows=%d checks=%d", doc.ID, len(doc.Rows), len(doc.Checks))
	}
	// The sweep trace spans submit → nodes → artifacts → done.
	tr := sw.Trace()
	var sawArtifact, sawDone bool
	for _, e := range tr.Events {
		sawArtifact = sawArtifact || e.Name == "artifact/written"
		sawDone = sawDone || e.Name == "sweep/done"
	}
	if !sawArtifact || !sawDone {
		t.Fatalf("trace missing stages: artifact=%v done=%v (%d events)", sawArtifact, sawDone, len(tr.Events))
	}
}

// TestSweepContinueLeavesDependentsSkipped forces one job node to fail
// under the continue policy: sibling branches must finish, the failed
// branch's aggregation and the figure must end skipped, and the sweep
// must end failed.
func TestSweepContinueLeavesDependentsSkipped(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(7), 400, 3)
	_, m := newTestManagers(t, g, g, nil, 4)

	sp := normalized(t, m, Spec{Artifact: "fig1", Runs: 3, OnError: Continue})
	nodes, err := plan(sp, g, nil)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	for _, n := range nodes {
		if n.id == "fig1/single/run001" {
			n.jobSpec.Method = "no-such-method"
		}
	}
	sw := startPlanned(m, sp, nodes)
	st := waitTerminal(t, sw, time.Minute)
	if st.State != StateFailed {
		t.Fatalf("sweep state %s, want failed", st.State)
	}
	if n := nodeByID(t, st, "fig1/single/run001"); n.State != NodeFailed {
		t.Fatalf("corrupt node state %s: %q", n.State, n.Error)
	}
	if n := nodeByID(t, st, "fig1/agg/single"); n.State != NodeSkipped ||
		!strings.Contains(n.Error, "dependency") {
		t.Fatalf("downstream aggregation state %s (%q), want skipped on dependency", n.State, n.Error)
	}
	if n := nodeByID(t, st, "fig1/figure"); n.State != NodeSkipped {
		t.Fatalf("figure state %s, want skipped", n.State)
	}
	// The sibling branch must have finished despite the failure.
	if n := nodeByID(t, st, "fig1/agg/multiple"); n.State != NodeDone {
		t.Fatalf("sibling aggregation state %s (%q), want done", n.State, n.Error)
	}
	for r := 0; r < 3; r++ {
		id := fmt.Sprintf("fig1/multiple/run%03d", r)
		if n := nodeByID(t, st, id); n.State != NodeDone {
			t.Fatalf("sibling %s state %s (%q), want done", id, n.State, n.Error)
		}
	}
}

// TestSweepFailFastAbortsSiblings forces the first job node to fail
// under fail-fast: in-flight sibling jobs are cancelled and pending
// nodes skipped.
func TestSweepFailFastAbortsSiblings(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(7), 64, 2)
	slow := &slowSource{g: g, delay: 5 * time.Millisecond}
	jm, err := jobs.NewManager(slow, jobs.WithWorkers(2))
	if err != nil {
		t.Fatalf("jobs manager: %v", err)
	}
	t.Cleanup(jm.Stop)
	m, err := NewManager(jm, testSource{g: g})
	if err != nil {
		t.Fatalf("sweep manager: %v", err)
	}
	t.Cleanup(m.Stop)

	sp := normalized(t, m, Spec{Artifact: "fig1", Runs: 6, Parallel: 3, OnError: FailFast})
	nodes, err := plan(sp, g, nil)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	for _, n := range nodes {
		if n.id == "fig1/single/run000" {
			n.jobSpec.Method = "no-such-method"
		}
	}
	sw := startPlanned(m, sp, nodes)
	st := waitTerminal(t, sw, time.Minute)
	if st.State != StateFailed || !strings.Contains(st.Error, "fig1/single/run000") {
		t.Fatalf("sweep state %s (%q), want failed on the corrupt node", st.State, st.Error)
	}
	var aborted, skipped int
	for _, n := range st.Nodes {
		if !n.State.Terminal() {
			t.Fatalf("node %s left non-terminal (%s)", n.ID, n.State)
		}
		if n.State == NodeFailed && strings.HasPrefix(n.Error, "aborted:") {
			aborted++
		}
		if n.State == NodeSkipped {
			skipped++
		}
	}
	if aborted == 0 {
		t.Fatalf("no in-flight sibling was cancelled; counts %v", st.NodeCounts)
	}
	if skipped == 0 {
		t.Fatalf("no pending node was skipped; counts %v", st.NodeCounts)
	}
	// Every job the sweep submitted settles in the job manager; the
	// cancel is asynchronous, so allow a grace period.
	deadline := time.Now().Add(10 * time.Second)
	for _, j := range jm.Jobs() {
		for !j.Status().State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s left %s after fail-fast abort", j.ID(), j.Status().State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestSweepResumeByteIdentical kills the managers mid-sweep and resumes
// from the manifests: completed nodes must not re-run (same job ids,
// same digests) and the final artifacts must be byte-identical to an
// uninterrupted control run.
func TestSweepResumeByteIdentical(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(11), 800, 3)
	spec := Spec{Artifact: "fig1", Seed: 5, Runs: 12, Parallel: 2}

	// Control: uninterrupted run.
	_, control := newTestManagers(t, g, g, nil, 2)
	csw, err := control.Submit(spec)
	if err != nil {
		t.Fatalf("control submit: %v", err)
	}
	cst := waitTerminal(t, csw, 2*time.Minute)
	if cst.State != StateDone {
		t.Fatalf("control sweep %s: %q", cst.State, cst.Error)
	}
	controlBytes := map[string][]byte{}
	for _, a := range cst.Artifacts {
		path, err := control.ArtifactPath(csw.ID(), a.Name)
		if err != nil {
			t.Fatalf("control artifact %s: %v", a.Name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read control artifact: %v", err)
		}
		controlBytes[a.Name] = data
	}

	// Interrupted run over persistent dirs, slowed so the freeze lands
	// mid-sweep.
	root := t.TempDir()
	jobDir := filepath.Join(root, "jobs")
	sweepDir := filepath.Join(root, "sweeps")
	artDir := filepath.Join(root, "artifacts")
	slow := &slowSource{g: g, delay: time.Millisecond}
	jm1, err := jobs.NewManager(slow, jobs.WithWorkers(2), jobs.WithCheckpointDir(jobDir))
	if err != nil {
		t.Fatalf("jobs manager: %v", err)
	}
	m1, err := NewManager(jm1, testSource{g: g}, WithDir(sweepDir), WithArtifactDir(artDir))
	if err != nil {
		t.Fatalf("sweep manager: %v", err)
	}
	sw1, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if st := sw1.Status(); st.NodeCounts[NodeDone] >= 3 || st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep made no progress before the freeze")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m1.Stop() // freeze the sweep first, then the jobs underneath
	jm1.Stop()
	frozen := sw1.Status()
	if frozen.State.Terminal() {
		t.Skipf("sweep finished before the freeze (done=%d); nothing to resume", frozen.NodeCounts[NodeDone])
	}
	frozenDone := map[string]NodeStatus{}
	for _, n := range frozen.Nodes {
		if n.State == NodeDone {
			frozenDone[n.ID] = n
		}
	}
	if len(frozenDone) == 0 {
		t.Fatalf("freeze captured no completed nodes: %v", frozen.NodeCounts)
	}

	// Resume: fresh managers over the same directories.
	jm2, err := jobs.NewManager(g, jobs.WithWorkers(2), jobs.WithCheckpointDir(jobDir))
	if err != nil {
		t.Fatalf("resumed jobs manager: %v", err)
	}
	t.Cleanup(jm2.Stop)
	m2, err := NewManager(jm2, testSource{g: g}, WithDir(sweepDir), WithArtifactDir(artDir))
	if err != nil {
		t.Fatalf("resumed sweep manager: %v", err)
	}
	t.Cleanup(m2.Stop)
	sw2, ok := m2.Get(sw1.ID())
	if !ok {
		t.Fatalf("resumed manager lost sweep %s", sw1.ID())
	}
	st := waitTerminal(t, sw2, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("resumed sweep %s: %q, counts %v", st.State, st.Error, st.NodeCounts)
	}

	// Completed nodes kept their identity: no re-submission, no new
	// result bytes.
	for id, was := range frozenDone {
		now := nodeByID(t, st, id)
		if now.JobID != was.JobID {
			t.Errorf("node %s re-ran: job %s -> %s", id, was.JobID, now.JobID)
		}
		if now.Digest != was.Digest {
			t.Errorf("node %s result changed across resume: %s -> %s", id, was.Digest, now.Digest)
		}
	}

	// Final artifacts are byte-identical to the uninterrupted control.
	if len(st.Artifacts) != len(cst.Artifacts) {
		t.Fatalf("artifact count %d, control %d", len(st.Artifacts), len(cst.Artifacts))
	}
	for _, a := range st.Artifacts {
		path, err := m2.ArtifactPath(sw2.ID(), a.Name)
		if err != nil {
			t.Fatalf("resumed artifact %s: %v", a.Name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read resumed artifact: %v", err)
		}
		if want := controlBytes[a.Name]; string(data) != string(want) {
			t.Errorf("artifact %s differs from the uninterrupted run (%d vs %d bytes, digest %s vs %s)",
				a.Name, len(data), len(want), digestOf(data), digestOf(want))
		}
	}
}
