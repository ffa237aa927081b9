package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"frontier/internal/core"
	"frontier/internal/crawl"
	"frontier/internal/jobs"
	"frontier/internal/live"
	"frontier/internal/sweep"
	"frontier/internal/xrand"
)

// Ladder rungs, smallest stack first. Each replays a task's job specs
// on the mapped segment; a layer's self time is its rung minus the
// rung below.
const (
	rungCore     = "rung.core"      // sampler, no-op sink
	rungLive     = "rung.live"      // + live.Runtime and the observation hash
	rungJobs     = "rung.jobs"      // in-process jobs.Manager, no checkpoint dir
	rungJobsCkpt = "rung.jobs_ckpt" // the same with a checkpoint dir
	// fig5-sweep only: the sweep's job specs at parallelism 2 on the
	// checkpointing manager, and the sweep itself run in-process.
	rungJobsPar2    = "rung.jobs_par2"
	rungSweepInProc = "rung.sweep_inproc"
	// spanTask is the served task: the top rung.
	spanTask = "task"
)

// normalize fills a spec's defaults the way the job service does.
func normalize(sp jobs.Spec) jobs.Spec {
	if sp.M < 1 {
		sp.M = 1
	}
	if sp.Estimate == "" {
		sp.Estimate = "avgdegree"
	}
	if sp.CheckpointEvery <= 0 {
		sp.CheckpointEvery = jobs.DefaultCheckpointEvery
	}
	return sp
}

// replayResult is what one in-process replay of a spec produced.
type replayResult struct {
	obs      int64
	hash     string
	estimate float64
}

// sink selects what a replay feeds its observation stream to.
type sink int

const (
	sinkCount    sink = iota // count only: the core rung
	sinkEstimate             // hash + live estimator: the checks and est_nmse
	sinkLive                 // hash + live runtime (estimator and monitor): the live rung
)

// replay runs sp's sampler over the catalog's mapped graph through the
// same surface the job service drives (per-observation for
// walker-tracked methods, slabs otherwise) into the given sink. The
// live runtime is built as the job service builds it; the estimator
// alone yields the same estimate without the convergence monitor.
func (b *bench) replay(sp jobs.Spec, k sink) (replayResult, error) {
	sp = normalize(sp)
	method, ok := jobs.DefaultMethods().Get(sp.Method)
	if !ok {
		return replayResult{}, fmt.Errorf("unknown method %q", sp.Method)
	}
	src, release, err := b.e.cat.Resolve(sp.Graph)
	if err != nil {
		return replayResult{}, err
	}
	defer release()
	var est *live.Estimator
	var rt *live.Runtime
	if k != sinkCount {
		if est, err = live.Default().New(sp.Estimate, src); err != nil {
			return replayResult{}, err
		}
	}
	if k == sinkLive {
		rt = live.NewRuntime(est, live.NewMonitor(live.MonitorConfig{Chains: min(max(sp.M, 2), 8)}), nil)
	}
	sampler := method.Build(sp)
	tracker, _ := sampler.(core.WalkerTracker)
	sess := crawl.NewSessionContext(context.Background(), src, sp.Budget, crawl.UnitCosts(), xrand.New(sp.Seed))
	var res replayResult
	h := uint64(fnvOffset)
	switch {
	case k == sinkCount && method.UsesWalkers:
		err = sampler.RunObs(sess, func(core.Observation) { res.obs++ })
	case k == sinkCount:
		err = sampler.RunObsBatch(sess, func(batch []core.Observation) { res.obs += int64(len(batch)) })
	case method.UsesWalkers:
		err = sampler.RunObs(sess, func(o core.Observation) {
			h = hashObs(h, o.U, o.V)
			res.obs++
			if rt == nil {
				est.ObserveSample(o)
				return
			}
			walker := 0
			if tracker != nil {
				walker = tracker.LastWalker()
			}
			rt.ObserveSample(walker, o)
		})
	default:
		err = sampler.RunObsBatch(sess, func(batch []core.Observation) {
			for _, o := range batch {
				h = hashObs(h, o.U, o.V)
				if rt == nil {
					est.ObserveSample(o)
				}
			}
			res.obs += int64(len(batch))
			if rt != nil {
				rt.ObserveBatch(0, batch)
			}
		})
	}
	if err != nil && !errors.Is(err, crawl.ErrBudgetExhausted) {
		return res, err
	}
	res.hash = fmt.Sprintf("%016x", h)
	if est != nil {
		res.estimate = est.Value()
	}
	return res, nil
}

// ladder holds the in-process managers the upper rungs run on; they
// are separate from the served ones so the served job table and
// checkpoint dir stay the workload's own.
type ladder struct {
	plain, ckpt *jobs.Manager
	sweeps      *sweep.Manager
	ckptDir     string
}

func newLadder(b *bench) (*ladder, error) {
	l := &ladder{ckptDir: filepath.Join(b.e.dir, "ladder-jobs")}
	var err error
	if l.plain, err = jobs.NewManager(nil, jobs.WithWorkers(2), jobs.WithResolver(b.e.cat), jobs.WithLogger(b.e.logger)); err != nil {
		return nil, err
	}
	if l.ckpt, err = jobs.NewManager(nil, jobs.WithWorkers(2), jobs.WithResolver(b.e.cat),
		jobs.WithLogger(b.e.logger), jobs.WithCheckpointDir(l.ckptDir)); err != nil {
		l.plain.Stop()
		return nil, err
	}
	if l.sweeps, err = sweep.NewManager(l.ckpt, b.e.cat, sweep.WithLogger(b.e.logger),
		sweep.WithDir(filepath.Join(l.ckptDir, "sweeps")),
		sweep.WithArtifactDir(filepath.Join(b.e.dir, "ladder-artifacts"))); err != nil {
		l.plain.Stop()
		l.ckpt.Stop()
		return nil, err
	}
	return l, nil
}

func (l *ladder) close() {
	l.sweeps.Stop()
	l.ckpt.Stop()
	l.plain.Stop()
}

// runJob submits sp to m and waits for it to end.
func runJob(ctx context.Context, m *jobs.Manager, sp jobs.Spec) (*jobs.Job, error) {
	j, err := m.Submit(sp)
	if err != nil {
		return nil, err
	}
	wake, stop := j.Watch()
	defer stop()
	for {
		if st := j.Status(); st.State.Terminal() {
			if st.State != jobs.StateDone {
				return j, fmt.Errorf("ladder job %s ended %s: %s", st.ID, st.State, st.Error)
			}
			return j, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return j, ctx.Err()
		}
	}
}

// runJobs runs specs on m with at most par in flight.
func runJobs(ctx context.Context, m *jobs.Manager, specs []jobs.Spec, par int) ([]*jobs.Job, error) {
	out := make([]*jobs.Job, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, sp := range specs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, sp jobs.Spec) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = runJob(ctx, m, sp)
		}(i, sp)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// climb replays one finished task through every rung, each inside its
// own span. It returns the jobs the checkpointing rung ran.
func (l *ladder) climb(ctx context.Context, b *bench, t *task) ([]*jobs.Job, error) {
	specs, err := b.w.specs(b, t)
	if err != nil {
		return nil, err
	}
	b.tr.setTrace(t.trace)
	id, prev := b.tr.begin("ladder")
	defer b.tr.end(id, prev)
	for _, r := range []struct {
		name string
		sink sink
	}{{rungCore, sinkCount}, {rungLive, sinkLive}} {
		err := b.tr.do(r.name, func() error {
			for _, sp := range specs {
				if _, err := b.replay(sp, r.sink); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := b.tr.do(rungJobs, func() error {
		_, err := runJobs(ctx, l.plain, specs, 1)
		return err
	}); err != nil {
		return nil, err
	}
	var ran []*jobs.Job
	if err := b.tr.do(rungJobsCkpt, func() (err error) {
		ran, err = runJobs(ctx, l.ckpt, specs, 1)
		return err
	}); err != nil {
		return nil, err
	}
	if b.w.name != "fig5-sweep" {
		return ran, nil
	}
	if err := b.tr.do(rungJobsPar2, func() error {
		_, err := runJobs(ctx, l.ckpt, specs, 2)
		return err
	}); err != nil {
		return nil, err
	}
	err = b.tr.do(rungSweepInProc, func() error {
		sw, err := l.sweeps.Submit(fig5Spec(b.opts.seed, b.w.fixed, t.k))
		if err != nil {
			return err
		}
		wake, stop := sw.Watch()
		defer stop()
		for !sw.State().Terminal() {
			select {
			case <-wake:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if st := sw.Status(); st.State != sweep.StateDone || !st.ChecksPass {
			return fmt.Errorf("in-process sweep %s ended %s (checks pass %v): %s", st.ID, st.State, st.ChecksPass, st.Error)
		}
		return nil
	})
	return ran, err
}
