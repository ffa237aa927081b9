// Command perfbench is the repository's end-to-end benchmark. It
// composes graphd in-process exactly as cmd/graphd does (catalog over
// an .fcsr segment of the Flickr stand-in, job manager with 2 workers
// and a checkpoint dir, sweep manager, catalog server on loopback) and
// drives one workload as a closed loop with one client and one task in
// flight:
//
//	fs-job      FS jobs submitted over HTTP and followed over SSE
//	fs-crawl    FS run client-side over graphd's data plane, as fsample -url
//	fig5-sweep  the fig5 paper-figure sweep, followed to done
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fs-job --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures for --seconds and prints the end-to-end
// metrics; with --trace 1 it replays a fixed task list untraced, then
// traced, then through the per-layer ladder, prints the per-layer
// metrics and writes a span file under .perfbench/spans. Every output
// is checked; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See NOTES.md for what
// each metric means and which workload it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"frontier/internal/jobs"
	"frontier/internal/netgraph"
	"frontier/internal/stats"
)

// options configure one run. The self-tests shrink the graph and the
// task counts; the command line sets only the first four.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; scratch files live under root/.perfbench

	scale     float64 // graph scale (1 = the stand-in's reproduction scale)
	setupReps int
	fixed     int // overrides the workload's fixed task count when > 0
	traced    int // overrides the workload's traced task count when > 0
	quality   int // overrides the workload's est_nmse list length when > 0
	// breakCheck corrupts the replay hash the checks compare against,
	// so a self-test can confirm a failed check fails the run.
	breakCheck bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	opts options
	w    *workload
	e    *env
	tr   *tracer
	clk  *stealClock
	rt   *countingTransport
	hc   *http.Client
	ctl  *netgraph.Client
	log  io.Writer

	attempted, failed int64
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{scale: 1, setupReps: 5}
	fs.StringVar(&opts.workload, "workload", "", "workload: fs-job, fs-crawl or fig5-sweep")
	fs.Uint64Var(&opts.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opts.seconds, "seconds", 30, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&opts.root, "root", ".", "checkout root (scratch files go under root/.perfbench)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts.trace = *traceFlag != 0
	res, err := run(opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one benchmark run. A run whose checks fail returns a
// result with Correct false, the failure counts and no metrics.
func run(opts options, log io.Writer) (*result, error) {
	w, ok := workloads()[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want fs-job, fs-crawl or fig5-sweep)", opts.workload)
	}
	if opts.fixed > 0 {
		w.fixed = opts.fixed
	}
	if opts.traced > 0 {
		w.traced = opts.traced
	}
	if opts.quality > 0 && w.quality > 0 {
		w.quality = opts.quality
	}
	dir := filepath.Join(opts.root, ".perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	clk := startStealClock()
	defer clk.close()
	e, setupRuns, err := setup(dir, opts.scale, opts.setupReps, w.latency)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); cerr != nil {
			fmt.Fprintf(log, "perfbench: shutting down graphd: %v\n", cerr)
		}
	}()

	// Every run ends well inside the 180-second limit.
	ctx, cancel := context.WithTimeout(context.Background(), 160*time.Second)
	defer cancel()
	b := &bench{opts: opts, w: w, e: e, tr: newTracer(false), clk: clk, log: log}
	b.rt = newCountingTransport(b.tr)
	defer b.rt.closeIdle()
	b.hc = &http.Client{Transport: b.rt}
	if b.ctl, err = netgraph.Dial(e.baseURL, b.hc, netgraph.WithGraph(graphName), netgraph.WithContext(ctx)); err != nil {
		return nil, err
	}
	if opts.trace {
		return b.traced(ctx, setupRuns)
	}
	return b.endToEnd(ctx, setupRuns)
}

// failure is the result of a run whose checks failed.
func (b *bench) failure(err error) (*result, error) {
	if b.failed == 0 {
		b.failed = 1
	}
	if b.attempted < b.failed {
		b.attempted = b.failed
	}
	return &result{Correct: false, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}, err
}

// runTask runs task k of the run, optionally inside a "task" span,
// and records what it cost on the wire.
func (b *bench) runTask(ctx context.Context, k int, traced bool) (*task, error) {
	t := &task{k: k, seed: taskSeed(b.opts.seed, k), trace: fmt.Sprintf("%016x", taskSeed(b.opts.seed^0x5eed, k))}
	b.tr.setTrace(t.trace)
	n0, by0 := b.rt.counts()
	t.start = time.Now()
	var err error
	if traced {
		err = b.tr.do(spanTask, func() error { return b.w.run(ctx, b, t) })
	} else {
		err = b.w.run(ctx, b, t)
	}
	t.end = time.Now()
	n1, by1 := b.rt.counts()
	t.rts, t.respB = n1-n0, by1-by0
	b.attempted += 1 + t.rts + int64(t.nodes)
	if err != nil {
		b.failed++
		return t, fmt.Errorf("task %d (seed %d): %w", k, t.seed, err)
	}
	if b.w.name == "fig5-sweep" {
		err = b.collectSweepJobs(t)
	}
	return t, err
}

// collectSweepJobs reads each sweep job's observations, estimate
// reports and queued and done instants from the served job manager.
func (b *bench) collectSweepJobs(t *task) error {
	for _, id := range t.jobIDs {
		j, ok := b.e.mgr.Get(id)
		if !ok {
			return fmt.Errorf("sweep job %s not found", id)
		}
		st := j.Status()
		t.obs += st.Edges
		t.updates += st.EstimateUpdates
		queued, _, done, ok := eventTimes(j.Trace())
		if !ok {
			return fmt.Errorf("sweep job %s: trace lacks queued/done events", id)
		}
		t.jobSpans = append(t.jobSpans, [2]time.Time{queued, done})
	}
	return nil
}

// eventTimes returns a job trace's first queued, first running and
// last done times.
func eventTimes(tr jobs.Trace) (queued, running, done time.Time, ok bool) {
	for _, ev := range tr.Events {
		switch ev.Name {
		case "queued":
			if queued.IsZero() {
				queued = ev.Time
			}
		case "running":
			if running.IsZero() {
				running = ev.Time
			}
		case "done":
			done = ev.Time
		}
	}
	return queued, running, done, !queued.IsZero() && !running.IsZero() && !done.IsZero()
}

// verify is the correctness gate every run ends with: each served
// job's hash and estimate equal an in-process replay of its spec, each
// crawl's equal a local replay of the same spec, and a sweep that
// repeats an earlier task's spec wrote identical artifacts.
func (b *bench) verify(tasks []*task) error {
	firstOfSpec := make(map[int]*task)
	for _, t := range tasks {
		specs, err := b.w.specs(b, t)
		if err != nil {
			return err
		}
		if b.w.name == "fig5-sweep" {
			first, ok := firstOfSpec[t.k%b.w.fixed]
			if !ok {
				firstOfSpec[t.k%b.w.fixed] = t
				first = t
			}
			for name, sum := range first.artifacts {
				if t.artifacts[name] != sum {
					return fmt.Errorf("sweep %s: artifact %s differs from sweep %s of the same spec", t.sweepID, name, first.sweepID)
				}
			}
			for i, sp := range specs {
				j, _ := b.e.mgr.Get(t.jobIDs[i])
				st := j.Status()
				if err := b.checkReplay(sp, st.Edges, st.EdgeHash, nil); err != nil {
					return fmt.Errorf("sweep %s job %s: %w", t.sweepID, st.ID, err)
				}
			}
			continue
		}
		est := t.estimate
		if err := b.checkReplay(specs[0], t.obs, t.hash, &est); err != nil {
			return fmt.Errorf("task %d (seed %d): %w", t.k, t.seed, err)
		}
	}
	return nil
}

// checkReplay replays sp in-process and compares the observation
// count, the hash and, when given, the estimate.
func (b *bench) checkReplay(sp jobs.Spec, obs int64, hash string, est *float64) error {
	r, err := b.replay(sp, sinkEstimate)
	if err != nil {
		return err
	}
	if b.opts.breakCheck {
		r.hash = "broken-" + r.hash
	}
	switch {
	case r.obs != obs:
		return fmt.Errorf("served %d observations, replay %d", obs, r.obs)
	case r.hash != hash:
		return fmt.Errorf("served hash %s, replay %s", hash, r.hash)
	case est != nil && r.estimate != *est:
		return fmt.Errorf("served estimate %v, replay %v", *est, r.estimate)
	}
	return nil
}

// endToEnd is the untraced run: tasks back to back for the measured
// window (and at least the workload's fixed task list), then checks,
// then the end-to-end metrics.
func (b *bench) endToEnd(ctx context.Context, setupRuns []setupTimes) (*result, error) {
	// peak_rss_mb is graphd's peak while serving: the catalog maps a
	// segment graphd did not generate.
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(b.log, "perfbench: peak_rss_mb includes set-up: %v\n", err)
	}
	if err := b.warmUp(ctx); err != nil {
		return b.failure(err)
	}
	var tasks []*task
	var rss float64
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(time.Duration(b.opts.seconds * float64(time.Second)))
	for k := 0; k < max(b.w.fixed, b.w.batch) || time.Now().Before(deadline); k++ {
		t, err := b.runTask(ctx, k, false)
		if err != nil {
			return b.failure(err)
		}
		tasks = append(tasks, t)
		// The job service keeps finished jobs, so the peak grows with
		// the tasks served. Read after the fixed task list, it does not
		// depend on how many tasks a slower or faster window fits in,
		// and it leaves out the checks and the replays below.
		if len(tasks) == b.w.fixed {
			rss = peakRSSMB()
		}
	}
	end := time.Now()
	fmt.Fprintf(b.log, "perfbench: window %.2fs wall, steal share %.3f, %.2fs steal-corrected, %.2fs process CPU\n",
		end.Sub(start).Seconds(), b.clk.share(start, end), b.clk.adjust(start, end).Seconds(), (processCPU() - cpu0).Seconds())
	if err := b.verify(tasks); err != nil {
		b.failed++
		return b.failure(err)
	}
	estimates, err := b.quality(tasks)
	if err != nil {
		b.failed++
		return b.failure(err)
	}
	return b.report(b.endToEndMetrics(tasks, estimates, setupRuns, rss)), nil
}

// quality returns the final estimates of the run's first
// workload.quality task specs: the served tasks' as served (verify
// checked each equal to its replay), the rest of the list replayed
// in-process through the same sampler and live estimator. A run serves
// too few tasks for their error to be steady from seed to seed; the
// replayed list makes est_nmse a property of the code, not of the luck
// of a few walks.
func (b *bench) quality(tasks []*task) ([]float64, error) {
	n := b.w.quality
	out := make([]float64, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				sp, err := b.w.specs(b, &task{k: k, seed: taskSeed(b.opts.seed, k)})
				if err == nil {
					var r replayResult
					r, err = b.replay(sp[0], sinkEstimate)
					out[k] = r.estimate
				}
				errs[k] = err
			}
		}()
	}
	for k := 0; k < n; k++ {
		if k < len(tasks) {
			out[k] = tasks[k].estimate
			continue
		}
		next <- k
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

func (b *bench) report(m map[string]metric) *result {
	return &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

func (b *bench) endToEndMetrics(tasks []*task, estimates []float64, setupRuns []setupTimes, rssMB float64) map[string]metric {
	// Durations are wall-clock with the hypervisor's steal taken out
	// (see stealClock). Throughput and sweep time are medians over
	// batches of consecutive tasks.
	var jobDurs []time.Duration
	var batchS, batchRate []float64
	var dur time.Duration
	var obs int64
	for i, t := range tasks {
		d := b.clk.adjust(t.start, t.end)
		if t.jobSpans != nil {
			for _, js := range t.jobSpans {
				jobDurs = append(jobDurs, b.clk.adjust(js[0], js[1]))
			}
		} else {
			jobDurs = append(jobDurs, d)
		}
		dur += d
		obs += t.obs
		if (i+1)%b.w.batch == 0 {
			batchS = append(batchS, dur.Seconds())
			batchRate = append(batchRate, float64(obs)/dur.Seconds())
			dur, obs = 0, 0
		}
	}
	var fixedObs, fixedRTs int64
	var sweepNMSE []float64
	for _, t := range tasks[:b.w.fixed] {
		fixedObs += t.obs
		fixedRTs += t.rts
		sweepNMSE = append(sweepNMSE, t.fsNMSE)
	}
	nmse := stats.NewScalarError(b.e.truth)
	for _, est := range estimates {
		nmse.Add(est)
	}
	estNMSE := nmse.NMSE()
	if b.w.name == "fig5-sweep" {
		estNMSE = mean(sweepNMSE)
	}
	js := seconds(jobDurs)
	p, ok := tailPercentile(len(js))
	fmt.Fprintf(b.log, "perfbench: %s: %d tasks, %d job times (highest percentile with %d beyond: p%d, ok=%v), %d batches\n",
		b.w.name, len(tasks), len(js), minBeyond, p, ok, len(batchS))
	var setupS []float64
	for _, s := range setupRuns {
		build, write, open := s.durations(b.clk)
		setupS = append(setupS, (build + write + open).Seconds())
	}
	return map[string]metric{
		"setup_s":             {median(setupS), "s"},
		"obs_per_s":           {median(batchRate), "1/s"},
		"job_s.p50":           {median(js), "s"},
		"job_s.p90":           {percentile(js, 90), "s"},
		"sweep_s":             {median(batchS), "s"},
		"roundtrips_per_kobs": {1000 * float64(fixedRTs) / float64(fixedObs), "count"},
		"est_nmse":            {estNMSE, "ratio"},
		"ok_ratio":            {float64(b.attempted-b.failed) / float64(b.attempted), "ratio"},
		"peak_rss_mb":         {rssMB, "MB"},
	}
}

// processCPU is the user and system CPU time the process has used.
// Each run prints it next to the window's wall-clock.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's peak resident set size to its
// current one (Linux 4.0 and later).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS, or since it started.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procSample holds the runtime counters the proc layer metrics use.
type procSample struct{ allocB, gcCPU, totalCPU float64 }

func (p procSample) sub(q procSample) procSample {
	return procSample{p.allocB - q.allocB, p.gcCPU - q.gcCPU, p.totalCPU - q.totalCPU}
}

func (p procSample) add(q procSample) procSample {
	return procSample{p.allocB + q.allocB, p.gcCPU + q.gcCPU, p.totalCPU + q.totalCPU}
}

// readProc reads the counters. The CPU classes advance at each GC
// cycle, so a sum over many tasks is what they are good for.
func readProc() procSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return procSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// warmUp runs task 0 once, unmeasured, so the measured tasks find
// the segment's pages mapped and the connection pool and allocator
// warm, as they are on a server that has been up for a while.
func (b *bench) warmUp(ctx context.Context) error {
	_, err := b.runTask(ctx, 0, false)
	return err
}

// traced is the per-layer run. For each task of the fixed traced list
// it runs the task untraced, then traced, then climbs its ladder, so
// the three runs of one spec happen close together in time.
func (b *bench) traced(ctx context.Context, setupRuns []setupTimes) (*result, error) {
	if err := b.warmUp(ctx); err != nil {
		return b.failure(err)
	}
	l, err := newLadder(b)
	if err != nil {
		return nil, err
	}
	defer l.close()
	var plain, tasks []*task
	var plainDur, tracedDur time.Duration
	var proc procSample
	var rtts []time.Duration
	var respBytes int64
	var ladderJobs []*jobs.Job
	for k := 0; k < b.w.traced; k++ {
		rt0 := len(b.rt.roundTripTimes())
		p0 := readProc()
		t, err := b.runTask(ctx, k, false)
		if err != nil {
			return b.failure(err)
		}
		proc = proc.add(readProc().sub(p0))
		rtts = append(rtts, b.rt.roundTripTimes()[rt0:]...)
		respBytes += t.respB
		plain = append(plain, t)
		plainDur += b.clk.adjust(t.start, t.end)

		b.tr.enable()
		t, err = b.runTask(ctx, k, true)
		if err != nil {
			return b.failure(err)
		}
		tasks = append(tasks, t)
		tracedDur += b.clk.adjust(t.start, t.end)
		ran, err := l.climb(ctx, b, t)
		b.tr.disable()
		if err != nil {
			b.failed++
			return b.failure(fmt.Errorf("ladder, task %d: %w", t.k, err))
		}
		ladderJobs = append(ladderJobs, ran...)
	}
	if err := b.verify(append(plain, tasks...)); err != nil {
		b.failed++
		return b.failure(err)
	}
	spans := b.tr.snapshot()
	m, err := b.layerMetrics(ctx, layerInputs{
		plain: plain, tasks: tasks, plainDur: plainDur, tracedDur: tracedDur,
		proc: proc, rtts: rtts, respBytes: respBytes,
		spans: spans, ladderJobs: ladderJobs, ladderDir: l.ckptDir, setupRuns: setupRuns,
	})
	if err != nil {
		b.failed++
		return b.failure(err)
	}
	spanDir := filepath.Join(b.opts.root, ".perfbench", "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.opts.seed))
	if err := writeSpans(path, b.w.name, b.opts.seed, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "perfbench: wrote %d spans to %s\n", len(spans), path)
	return b.report(m), nil
}
