package live

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"frontier/internal/core"
	"frontier/internal/crawl"
	"frontier/internal/estimate"
	"frontier/internal/gen"
	"frontier/internal/graph"
	"frontier/internal/xrand"
)

// walkEdge is one emitted edge with its walker id.
type walkEdge struct{ w, u, v int }

// sampleEdges runs an FS walk and records the emitted edges with walker
// ids.
func sampleEdges(t *testing.T, g *graph.Graph, m int, budget float64, seed uint64) []walkEdge {
	t.Helper()
	sess := crawl.NewSession(g, budget, crawl.UnitCosts(), xrand.New(seed))
	fs := &core.FrontierSampler{M: m}
	var out []walkEdge
	if err := fs.Run(sess, func(u, v int) {
		out = append(out, walkEdge{w: fs.LastWalker(), u: u, v: v})
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("walk emitted nothing")
	}
	return out
}

func TestRegistryNamesAndErrors(t *testing.T) {
	r := Default()
	names := r.Names()
	want := []string{"assortativity", "avgdegree", "clustering", "degreedist", "groupdensity"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	g := gen.BarabasiAlbert(xrand.New(1), 200, 2)
	if _, err := r.New("bogus", g); err == nil || !strings.Contains(err.Error(), "avgdegree") {
		t.Fatalf("unknown-estimator error must enumerate registered names, got %v", err)
	}
	// A bare Source (no EdgeView, no groups) supports only the degree
	// estimators.
	bare := bareSource{g}
	if err := r.Supports("avgdegree", bare); err != nil {
		t.Fatalf("avgdegree over bare source: %v", err)
	}
	if err := r.Supports("clustering", bare); err == nil {
		t.Fatal("clustering over a bare Source must be rejected")
	}
	if err := r.Supports("groupdensity", g); err == nil {
		t.Fatal("groupdensity without group labels must be rejected")
	}

	fresh := NewRegistry()
	if err := fresh.Register("avgdegree", func(crawl.Source) (*Estimator, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate registration must error")
	}
	if err := fresh.Register("custom", func(src crawl.Source) (*Estimator, error) {
		return newEstimator("custom", src, &avgDegreeKernel{src: src}), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Supports("custom", g); err != nil {
		t.Fatal(err)
	}
}

// bareSource strips a graph down to crawl.Source.
type bareSource struct{ g *graph.Graph }

func (b bareSource) NumVertices() int         { return b.g.NumVertices() }
func (b bareSource) SymDegree(v int) int      { return b.g.SymDegree(v) }
func (b bareSource) SymNeighbor(v, i int) int { return b.g.SymNeighbor(v, i) }

// labeledGraph adds GroupSource to a graph, the way the netgraph
// catalog's labeled sources do.
type labeledGraph struct {
	*graph.Graph
	gl *graph.GroupLabels
}

func (l labeledGraph) Groups(v int) []int32 { return l.gl.Groups(v) }
func (l labeledGraph) NumGroups() int       { return l.gl.NumGroups() }

// TestEstimatorsMatchEstimatePackage: the live kernels must agree
// exactly with internal/estimate on the same edge stream — a live
// estimate never drifts from the offline one.
func TestEstimatorsMatchEstimatePackage(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(2), 1500, 3)
	gl := gen.PlantGroups(xrand.New(3), g, 8, 3000, 1.2)
	src := labeledGraph{Graph: g, gl: gl}
	edges := sampleEdges(t, g, 16, 5000, 7)

	r := Default()
	names := []string{"avgdegree", "clustering", "assortativity", "degreedist", "groupdensity"}
	ests := make(map[string]*Estimator, len(names))
	for _, name := range names {
		e, err := r.New(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ests[name] = e
	}
	refAvg := estimate.NewAvgDegree(g)
	refClus := estimate.NewClustering(g)
	refAssort := estimate.NewAssortativity(g, false)
	refDeg := estimate.NewDegreeDist(g, graph.SymDeg)
	refGroup := estimate.NewGroupDensity(g, gl)
	for _, e := range edges {
		for _, est := range ests {
			est.Observe(e.u, e.v)
		}
		refAvg.Observe(e.u, e.v)
		refClus.Observe(e.u, e.v)
		refAssort.Observe(e.u, e.v)
		refDeg.Observe(e.u, e.v)
		refGroup.Observe(e.u, e.v)
	}
	if got, want := ests["avgdegree"].Value(), refAvg.Estimate(); got != want {
		t.Fatalf("avgdegree %v, estimate pkg %v", got, want)
	}
	if got, want := ests["clustering"].Value(), refClus.Estimate(); got != want {
		t.Fatalf("clustering %v, estimate pkg %v", got, want)
	}
	if got, want := ests["assortativity"].Value(), refAssort.Estimate(); got != want {
		t.Fatalf("assortativity %v, estimate pkg %v", got, want)
	}
	vec := ests["degreedist"].Vector()
	if vec == nil || vec.Kind != "degree_ccdf" {
		t.Fatalf("degreedist vector = %+v", vec)
	}
	refCCDF := refDeg.CCDF()
	if len(vec.Values) != len(refCCDF) {
		t.Fatalf("degreedist CCDF length %d, estimate pkg %d", len(vec.Values), len(refCCDF))
	}
	for i := range refCCDF {
		if vec.Values[i] != refCCDF[i] {
			t.Fatalf("degreedist CCDF[%d] = %v, estimate pkg %v", i, vec.Values[i], refCCDF[i])
		}
	}
	gvec := ests["groupdensity"].Vector()
	if gvec == nil || gvec.Kind != "group_density" || len(gvec.Values) != gl.NumGroups() {
		t.Fatalf("groupdensity vector = %+v", gvec)
	}
	for l := 0; l < gl.NumGroups(); l++ {
		if gvec.Values[l] != refGroup.Estimate(l) {
			t.Fatalf("groupdensity[%d] = %v, estimate pkg %v", l, gvec.Values[l], refGroup.Estimate(l))
		}
	}
	if v := ests["groupdensity"].Value(); v != refGroup.Estimate(0) {
		t.Fatalf("groupdensity scalar = %v, want group-0 density %v", v, refGroup.Estimate(0))
	}
}

func TestParseStopRule(t *testing.T) {
	good := map[string]Metric{
		"ci_halfwidth<=0.01":    MetricCIHalfWidth,
		"ci_rel<=0.005":         MetricCIRel,
		"ess>=5000":             MetricESS,
		"rhat<=1.05":            MetricRHat,
		" ci_halfwidth <= 0.5 ": MetricCIHalfWidth,
	}
	for s, m := range good {
		r, err := ParseStopRule(s)
		if err != nil || r == nil || r.Metric != m {
			t.Fatalf("ParseStopRule(%q) = %+v, %v", s, r, err)
		}
		// String() round-trips through the parser.
		r2, err := ParseStopRule(r.String())
		if err != nil || r2.Metric != r.Metric || r2.Threshold != r.Threshold {
			t.Fatalf("round-trip of %q failed: %+v, %v", r.String(), r2, err)
		}
	}
	if r, err := ParseStopRule(""); err != nil || r != nil {
		t.Fatalf("empty rule = %+v, %v; want nil, nil (budget-only)", r, err)
	}
	for _, s := range []string{
		"ess<=10",            // wrong direction: would stop instantly
		"ci_halfwidth>=0.01", // wrong direction
		"ci_halfwidth<=0",    // non-positive threshold
		"ci_halfwidth<=x",    // bad number
		"bogus<=1",           // unknown metric
		"ci_halfwidth",       // no comparison
		"ess>=0.5",           // sub-1 ESS
	} {
		if _, err := ParseStopRule(s); err == nil {
			t.Fatalf("ParseStopRule(%q) must error", s)
		}
	}
}

// FuzzParseStopRule: ParseStopRule never panics, and every rule it
// accepts renders through String to a rule that parses back equal.
func FuzzParseStopRule(f *testing.F) {
	for _, s := range []string{
		"ci_halfwidth<=0.01", "ci_rel<=0.005", "ess>=5000", "rhat<=1.05",
		" ci_halfwidth <= 0.5 ", "", "ess<=10", "rhat<=1e-300", "ess>=1e+308",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseStopRule(s)
		if err != nil || r == nil {
			return
		}
		r2, err := ParseStopRule(r.String())
		if err != nil || r2 == nil || *r2 != *r {
			t.Fatalf("ParseStopRule(%q) = %+v, but its String %q parses to %+v, %v", s, *r, r.String(), r2, err)
		}
	})
}

// TestRuntimeConvergesAndStops: on a well-connected graph the CI
// tightens and a ci_halfwidth rule fires well before a huge edge budget
// is consumed, while the budget-only runtime never claims convergence.
func TestRuntimeConvergesAndStops(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(4), 3000, 3)
	edges := sampleEdges(t, g, 16, 60000, 11)

	rule, err := ParseStopRule("ci_halfwidth<=0.2")
	if err != nil {
		t.Fatal(err)
	}
	est, err := Default().New("avgdegree", g)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(est, NewMonitor(MonitorConfig{}), rule)
	stopAt := -1
	for i, e := range edges {
		rt.Observe(e.w, e.u, e.v)
		if ok, _ := rt.Converged(); ok {
			stopAt = i
			break
		}
	}
	if stopAt < 0 {
		t.Fatalf("rule never fired over %d edges", len(edges))
	}
	if stopAt >= len(edges)-1 {
		t.Fatal("rule fired only at the very end; nothing was saved")
	}
	conv, reason := rt.Converged()
	if !conv || !strings.Contains(reason, "ci_halfwidth") {
		t.Fatalf("Converged() = %v, %q", conv, reason)
	}
	rep := rt.Report()
	if rep.Value == nil || rep.CI == nil || !rep.Converged {
		t.Fatalf("report = %+v", rep)
	}
	if rep.CI.HalfWidth > 0.2 {
		t.Fatalf("stopped with half-width %v > 0.2", rep.CI.HalfWidth)
	}
	// The CI should cover the truth (a ~95% interval; the fixed seed
	// makes this deterministic, so no flake).
	truth := float64(g.NumSymEdges()) / float64(g.NumVertices())
	if truth < rep.CI.Lo-0.5 || truth > rep.CI.Hi+0.5 {
		t.Fatalf("CI [%v, %v] far from truth %v", rep.CI.Lo, rep.CI.Hi, truth)
	}

	// Budget-only: same stream, no rule, never converged.
	est2, _ := Default().New("avgdegree", g)
	rt2 := NewRuntime(est2, NewMonitor(MonitorConfig{}), nil)
	var lastRep *Report
	for _, e := range edges {
		if r := rt2.Observe(e.w, e.u, e.v); r != nil {
			lastRep = r
		}
	}
	if ok, _ := rt2.Converged(); ok {
		t.Fatal("budget-only runtime claimed convergence")
	}
	if lastRep == nil || lastRep.Converged || lastRep.StopRule != "" {
		t.Fatalf("budget-only report = %+v", lastRep)
	}
	if lastRep.Diagnostics.ESS == nil || lastRep.Diagnostics.RHat == nil {
		t.Fatalf("diagnostics missing after %d edges: %+v", len(edges), lastRep.Diagnostics)
	}
	if *lastRep.Diagnostics.RHat > 1.5 {
		t.Fatalf("R-hat %v on a connected graph, want near 1", *lastRep.Diagnostics.RHat)
	}
}

// TestRuntimeStateRoundTrip: serializing mid-stream and restoring into
// a fresh runtime reproduces byte-identical final state — the lossless
// pause/resume contract job checkpoints rely on.
func TestRuntimeStateRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(5), 1000, 3)
	edges := sampleEdges(t, g, 8, 8000, 13)
	rule, _ := ParseStopRule("ess>=1000000") // never fires; keeps rule state live

	build := func() *Runtime {
		est, err := Default().New("clustering", g)
		if err != nil {
			t.Fatal(err)
		}
		return NewRuntime(est, NewMonitor(MonitorConfig{BatchSize: 32, Window: 512, ChainWindow: 128}), rule)
	}

	full := build()
	for _, e := range edges {
		full.Observe(e.w, e.u, e.v)
	}
	wantState, err := full.State()
	if err != nil {
		t.Fatal(err)
	}

	half := build()
	mid := len(edges) / 3
	for _, e := range edges[:mid] {
		half.Observe(e.w, e.u, e.v)
	}
	snap, err := half.State()
	if err != nil {
		t.Fatal(err)
	}
	resumed := build()
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, e := range edges[mid:] {
		resumed.Observe(e.w, e.u, e.v)
	}
	gotState, err := resumed.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatalf("resumed state diverged:\n resumed %s\n full    %s", gotState, wantState)
	}
	if fv, rv := full.Estimator().Value(), resumed.Estimator().Value(); fv != rv {
		t.Fatalf("resumed estimate %v, full %v", rv, fv)
	}
	// Restoring into the wrong estimator is rejected.
	wrong, _ := Default().New("avgdegree", g)
	if err := NewRuntime(wrong, NewMonitor(MonitorConfig{}), nil).Restore(snap); err == nil {
		t.Fatal("restore into a different estimator must error")
	}
	// Version-less (pre-weighted-observation) state is rejected loudly:
	// its mixing-stat windows live on a different scale.
	old := bytes.Replace(snap, []byte(`"version":2,`), nil, 1)
	if bytes.Equal(old, snap) {
		t.Fatal("snapshot does not carry the state version")
	}
	fresh := build()
	if err := fresh.Restore(old); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-less live state restore = %v, want a version rejection", err)
	}
}

// TestMonitorDegenerateInputs: a flat observation window (every vertex
// the same degree) must leave the monitor undecided, not trigger a stop
// rule with a zero-width CI.
func TestMonitorDegenerateInputs(t *testing.T) {
	// A cycle: every vertex has symmetric degree 2, so the 1/deg series
	// is constant.
	b := graph.NewBuilder(64)
	for i := 0; i < 64; i++ {
		b.AddUndirected(i, (i+1)%64)
	}
	g := b.Build()
	edges := sampleEdges(t, g, 4, 3000, 17)

	rule, _ := ParseStopRule("ci_halfwidth<=0.5")
	est, err := Default().New("avgdegree", g)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(est, NewMonitor(MonitorConfig{}), rule)
	for _, e := range edges {
		rt.Observe(e.w, e.u, e.v)
	}
	rep := rt.Report()
	if rep.Value == nil || *rep.Value != 2 {
		t.Fatalf("cycle avg degree = %v, want exactly 2", rep.Value)
	}
	// Batch estimates are all exactly 2 → constant series → no CI, no
	// ESS, no convergence claim (walkstats.ErrConstantSeries).
	if rep.CI != nil {
		t.Fatalf("degenerate window produced CI %+v", rep.CI)
	}
	if rep.Converged {
		t.Fatalf("degenerate window claimed convergence: %s", rep.StopReason)
	}
	if rep.Diagnostics.ESS != nil && !math.IsNaN(*rep.Diagnostics.ESS) && *rep.Diagnostics.ESS > 0 {
		t.Fatalf("degenerate window produced ESS %v", *rep.Diagnostics.ESS)
	}
}

// TestBatchDoublingShrinksCI: when the batch bound fills, batches merge
// pairwise and the batch size doubles — so the CI half-width keeps
// shrinking with the run length instead of flooring at a window-limited
// constant (the failure mode that would make tight stop rules
// unreachable at any budget).
func TestBatchDoublingShrinksCI(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(6), 2000, 3)
	edges := sampleEdges(t, g, 16, 250000, 19)

	est, err := Default().New("avgdegree", g)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(est, NewMonitor(MonitorConfig{}), nil)
	var early *Interval
	for i, e := range edges {
		rt.Observe(e.w, e.u, e.v)
		if early == nil && i == 20000 {
			early = rt.Report().CI
		}
	}
	if early == nil {
		t.Fatalf("only %d edges sampled; no early CI", len(edges))
	}
	rep := rt.Report()
	if rep.CI == nil {
		t.Fatal("no final CI")
	}
	// 64 obs/batch × 256 batches = 16384 obs fills the bound, so a 250k
	// observation run must have doubled several times.
	if rep.Diagnostics.BatchSize <= DefaultBatchSize {
		t.Fatalf("batch size never doubled (still %d after %d obs)", rep.Diagnostics.BatchSize, rep.Observations)
	}
	if rep.Diagnostics.Batches >= DefaultMaxBatches {
		t.Fatalf("batch count %d not bounded by %d", rep.Diagnostics.Batches, DefaultMaxBatches)
	}
	// ~12x more data should shrink the half-width by ~sqrt(12) ≈ 3.5;
	// require at least 2x to stay robust to noise.
	if rep.CI.HalfWidth >= early.HalfWidth/2 {
		t.Fatalf("CI half-width %v after %d obs, was %v at 20k — not shrinking",
			rep.CI.HalfWidth, rep.Observations, early.HalfWidth)
	}
}

// TestReportMarshalsWithTrappedWalkers: walkers trapped in components
// of different constant degree drive Gelman-Rubin to +Inf — which JSON
// cannot carry. The report must marshal anyway (R-hat published as
// absent), because the estimates endpoint and the SSE stream both
// json.Marshal every report.
func TestReportMarshalsWithTrappedWalkers(t *testing.T) {
	// Component A: a 64-cycle (every degree 2, stat exactly 0.5).
	// Component B: K5 (every degree 4, stat exactly 0.25 — binary-exact
	// so the within-chain variance is exactly zero and Gelman-Rubin
	// returns +Inf rather than a merely-huge float). No bridge: walkers
	// can never cross.
	b := graph.NewBuilder(69)
	for i := 0; i < 64; i++ {
		b.AddUndirected(i, (i+1)%64)
	}
	for i := 64; i < 69; i++ {
		for j := i + 1; j < 69; j++ {
			b.AddUndirected(i, j)
		}
	}
	g := b.Build()

	est, err := Default().New("avgdegree", g)
	if err != nil {
		t.Fatal(err)
	}
	rule, _ := ParseStopRule("rhat<=1.05")
	rt := NewRuntime(est, NewMonitor(MonitorConfig{Chains: 2}), rule)

	sess := crawl.NewSession(g, 6000, crawl.UnitCosts(), xrand.New(23))
	fs := &core.FrontierSampler{M: 2, Seeder: core.FixedSeeder{Vertices: []int{0, 64}}}
	if err := fs.Run(sess, func(u, v int) {
		rt.Observe(fs.LastWalker(), u, v)
	}); err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	if rep.Diagnostics.RHat != nil {
		t.Fatalf("R-hat should be absent (was +Inf), got %v", *rep.Diagnostics.RHat)
	}
	if rep.Converged {
		t.Fatalf("trapped walkers must not satisfy an rhat rule: %s", rep.StopReason)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report must marshal: %v", err)
	}
}

// TestBudgetReportNeverContradictsStopReason: Report() is a pure
// getter — a job that ran to budget must not retroactively flip to
// Converged when its final report is built from slightly more data
// than the last eval point saw.
func TestBudgetReportNeverContradictsStopReason(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(24), 1500, 3)
	edges := sampleEdges(t, g, 8, 6000, 25)
	// A threshold the data is guaranteed to beat, paired with an eval
	// cadence larger than the stream: the rule never gets evaluated
	// during the run, so any convergence in the final report could only
	// come from Report() cheating.
	rule, _ := ParseStopRule("ci_halfwidth<=1000")
	est, _ := Default().New("avgdegree", g)
	rt := NewRuntime(est, NewMonitor(MonitorConfig{}), rule)
	rt.EvalEvery = int64(len(edges)) * 2
	for _, e := range edges {
		rt.Observe(e.w, e.u, e.v)
	}
	if ok, _ := rt.Converged(); ok {
		t.Fatal("rule evaluated outside the eval cadence")
	}
	rep := rt.Report()
	if rep.Converged || rep.StopReason != "" {
		t.Fatalf("pure-getter Report flipped the verdict: %+v", rep)
	}
	if ok, _ := rt.Converged(); ok {
		t.Fatal("Report() mutated the convergence verdict")
	}
}

// TestObserveBatchMatchesObserveSample pins the batch-consumption
// contract: driving the runtime one slab at a time reaches the exact
// state (serialized bytes, report, verdict) of the per-observation
// path, for both a rule that fires mid-stream and one that never does.
func TestObserveBatchMatchesObserveSample(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(6), 2000, 3)

	// A degree-weighted single-walk stream: varied weights, all edges.
	sess := crawl.NewSession(g, 6000, crawl.UnitCosts(), xrand.New(17))
	var obs []core.Observation
	if err := (&core.SingleRW{}).RunObs(sess, func(o core.Observation) { obs = append(obs, o) }); err != nil {
		t.Fatal(err)
	}
	if len(obs) < 3*core.SlabSize {
		t.Fatalf("stream too short to cross slab boundaries: %d", len(obs))
	}

	for _, ruleSpec := range []string{"", "ci_halfwidth<=0.25"} {
		var rule *StopRule
		if ruleSpec != "" {
			r, err := ParseStopRule(ruleSpec)
			if err != nil {
				t.Fatal(err)
			}
			rule = r
		}
		build := func() *Runtime {
			est, err := Default().New("avgdegree", g)
			if err != nil {
				t.Fatal(err)
			}
			return NewRuntime(est, NewMonitor(MonitorConfig{}), rule)
		}

		single := build()
		var singleReports int
		for _, o := range obs {
			if rep := single.ObserveSample(0, o); rep != nil {
				singleReports++
			}
		}

		batched := build()
		var batchReports int
		for lo := 0; lo < len(obs); lo += core.SlabSize {
			hi := lo + core.SlabSize
			if hi > len(obs) {
				hi = len(obs)
			}
			if rep := batched.ObserveBatch(0, obs[lo:hi]); rep != nil {
				batchReports++
			}
		}

		// Every eval boundary lands inside some slab, and at the default
		// cadence (512 == SlabSize) at most one per slab — so the counts
		// agree too, not just the terminal state.
		if singleReports == 0 || singleReports != batchReports {
			t.Fatalf("rule %q: %d per-observation reports, %d batch reports", ruleSpec, singleReports, batchReports)
		}
		sConv, sReason := single.Converged()
		bConv, bReason := batched.Converged()
		if sConv != bConv || sReason != bReason {
			t.Fatalf("rule %q: verdicts diverged: (%v,%q) vs (%v,%q)", ruleSpec, sConv, sReason, bConv, bReason)
		}
		sState, err := single.State()
		if err != nil {
			t.Fatal(err)
		}
		bState, err := batched.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sState, bState) {
			t.Fatalf("rule %q: serialized runtime state diverged:\nper-obs %s\nbatched %s", ruleSpec, sState, bState)
		}
	}
}

// TestObserveBatchRagged covers slab sizes other than the eval cadence:
// boundaries then land mid-slab and reports must still fire exactly as
// often, with identical terminal state.
func TestObserveBatchRagged(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(7), 1000, 3)
	sess := crawl.NewSession(g, 3000, crawl.UnitCosts(), xrand.New(23))
	var obs []core.Observation
	if err := (&core.MetropolisRW{}).RunObs(sess, func(o core.Observation) { obs = append(obs, o) }); err != nil {
		t.Fatal(err)
	}

	build := func() *Runtime {
		est, err := Default().New("avgdegree", g)
		if err != nil {
			t.Fatal(err)
		}
		return NewRuntime(est, NewMonitor(MonitorConfig{}), nil)
	}
	single := build()
	singleReports := 0
	for _, o := range obs {
		if single.ObserveSample(0, o) != nil {
			singleReports++
		}
	}
	for _, size := range []int{1, 3, 100, 511, 513} {
		batched := build()
		reports := 0
		for lo := 0; lo < len(obs); lo += size {
			hi := lo + size
			if hi > len(obs) {
				hi = len(obs)
			}
			// A slab may cross several eval boundaries; ObserveBatch
			// returns only the last report, so count boundaries via N.
			before := batched.Estimator().N()
			rep := batched.ObserveBatch(0, obs[lo:hi])
			after := batched.Estimator().N()
			crossed := int(after/DefaultEvalEvery - before/DefaultEvalEvery)
			if (rep != nil) != (crossed > 0) {
				t.Fatalf("size %d: report presence %v but %d boundaries crossed", size, rep != nil, crossed)
			}
			reports += crossed
		}
		if reports != singleReports {
			t.Fatalf("size %d: %d eval boundaries, per-observation path saw %d", size, reports, singleReports)
		}
		sState, _ := single.State()
		bState, _ := batched.State()
		if !bytes.Equal(sState, bState) {
			t.Fatalf("size %d: serialized runtime state diverged", size)
		}
	}
}
