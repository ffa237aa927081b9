package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{n: 10, ok: false},
		{n: 11, want: 9, ok: true},
		{n: 50, want: 80, ok: true},
		{n: 99, want: 89, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("tailPercentile(%d) = p%d, %v; want p%d, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			// At least ten samples lie beyond it, and one more percent
			// would leave fewer.
			rank := (p*c.n + 99) / 100
			next := ((p+1)*c.n + 99) / 100
			if c.n-rank < minBeyond || (p < 99 && c.n-next >= minBeyond) {
				t.Errorf("n=%d: p%d is not the highest percentile with %d beyond", c.n, p, minBeyond)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := percentile(xs, 40); got != 2 {
		t.Errorf("p40 = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
}

func TestLadderSelf(t *testing.T) {
	rungs := []float64{10, 25, 40, 100}
	self := ladderSelf(rungs)
	want := []float64{10, 15, 15, 60}
	var sum float64
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != rungs[len(rungs)-1] {
		t.Errorf("self times sum to %v, want the top rung %v", sum, rungs[len(rungs)-1])
	}
}

func TestCheckRungs(t *testing.T) {
	names := []string{"core", "live", "jobs"}
	if err := checkRungs(names, []float64{10, 25, 40}); err != nil {
		t.Errorf("growing rungs: %v", err)
	}
	// Within the slack: noise, not a negative self time.
	if err := checkRungs(names, []float64{10, 25, 23}); err != nil {
		t.Errorf("rung 8%% below the one beneath: %v", err)
	}
	if err := checkRungs(names, []float64{10, 25, 20}); err == nil {
		t.Error("rung 20% below the one beneath passed")
	}
}

func TestStealShare(t *testing.T) {
	at := func(sec int, cpus ...cpuTicks) cpuSample {
		return cpuSample{t: time.Unix(int64(sec), 0), cpus: cpus}
	}
	// Over one second cpu0 worked 80 ticks and waited 20 for the
	// hypervisor, cpu1 worked 30 and waited 10.
	a := at(0, cpuTicks{}, cpuTicks{})
	b := at(1, cpuTicks{busy: 80, steal: 20}, cpuTicks{busy: 30, steal: 10})
	if got, want := stealShare(a, b), 30.0/140; math.Abs(got-want) > 1e-12 {
		t.Errorf("stealShare = %v, want %v", got, want)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("stealShare over no time = %v, want 0", got)
	}

	// A 10 s wall-clock interval over which the busy CPU lost a fifth.
	c := &stealClock{}
	for sec := 0; sec <= 20; sec++ {
		c.samples = append(c.samples, at(sec, cpuTicks{busy: 80 * float64(sec), steal: 20 * float64(sec)}))
	}
	if got := c.adjust(time.Unix(5, 0), time.Unix(15, 0)); got != 8*time.Second {
		t.Errorf("adjust = %v, want 8s", got)
	}
	// A short interval reads the steal share around it.
	if got := c.share(time.Unix(10, 0), time.Unix(10, 1e8)); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("share of a short interval = %v, want 0.2", got)
	}
	if got := (&stealClock{}).adjust(time.Unix(0, 0), time.Unix(3, 0)); got != 3*time.Second {
		t.Errorf("adjust without samples = %v, want 3s", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "task", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "task", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	// task: 100 - (10..50 ∪ 90..100 = 50) + 10 for the second task.
	for name, want := range map[string]int64{"task": 60, "a": 20, "b": 20, "c": 30, "d": 10} {
		if got := self[name].Nanoseconds(); got != want {
			t.Errorf("self[%s] = %d, want %d", name, got, want)
		}
	}
	if got := total(spans, "task").Nanoseconds(); got != 110 {
		t.Errorf("total(task) = %d, want 110", got)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer(true)
	tr.setTrace("t1")
	_ = tr.do("outer", func() error {
		return tr.do("inner", func() error { return nil })
	})
	tr.setTrace("t2")
	_ = tr.do("next", func() error { return nil })
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != 0 {
		t.Errorf("parents wrong: %+v", spans)
	}
	if spans[0].Trace != "t1" || spans[1].Trace != "t1" || spans[2].Trace != "t2" {
		t.Errorf("trace ids wrong: %+v", spans)
	}
	off := newTracer(false)
	_ = off.do("x", func() error { return nil })
	if len(off.snapshot()) != 0 {
		t.Error("a disabled tracer recorded a span")
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// smoke runs one workload on a tiny graph with a short task list.
func smoke(t *testing.T, workload string, trace, breakCheck bool) *result {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	opts := options{
		workload: workload, seed: 1, seconds: 0, trace: trace, root: t.TempDir(),
		scale: 0.1, setupReps: 1, fixed: 1, traced: 1, quality: 3, breakCheck: breakCheck,
	}
	res, err := run(opts, io.Discard)
	if res == nil {
		t.Fatalf("%s: no result: %v", workload, err)
	}
	if breakCheck {
		return res
	}
	if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d err=%v", workload, res.Correct, res.Failed, res.Attempted, err)
	}
	key := "end_to_end"
	if trace {
		key = "per_layer"
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", workload, name, m.Value)
		}
	}
	sort.Strings(got)
	want := declared(t, key)
	if len(got) != len(want) {
		t.Fatalf("%s: metrics %v, BENCHMARK.json declares %v", workload, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: metric %q, BENCHMARK.json declares %q", workload, got[i], want[i])
		}
	}
	return res
}

func TestSmokeFSJob(t *testing.T) {
	smoke(t, "fs-job", false, false)
	smoke(t, "fs-job", true, false)
}

func TestSmokeFSCrawl(t *testing.T) {
	smoke(t, "fs-crawl", false, false)
	smoke(t, "fs-crawl", true, false)
}

func TestSmokeFig5Sweep(t *testing.T) {
	smoke(t, "fig5-sweep", false, false)
	smoke(t, "fig5-sweep", true, false)
}

// TestForcedCheckFailure corrupts the replay every served result is
// checked against: the run must report a failure and no numbers.
func TestForcedCheckFailure(t *testing.T) {
	for _, w := range []string{"fs-job", "fs-crawl", "fig5-sweep"} {
		res := smoke(t, w, false, true)
		if res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
			t.Errorf("%s: a failed check gave correct=%v failed=%d with %d metrics", w, res.Correct, res.Failed, len(res.Metrics))
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", root: t.TempDir()}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}
