package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"frontier/internal/jobs"
)

// layerInputs is what the traced run collected for the per-layer
// metrics.
type layerInputs struct {
	plain, tasks        []*task       // the untraced and the traced pass
	plainDur, tracedDur time.Duration // steal-corrected
	proc                procSample    // summed over the untraced tasks
	rtts                []time.Duration
	respBytes           int64
	spans               []span
	ladderJobs          []*jobs.Job // jobs the checkpointing rung ran
	ladderDir           string
	setupRuns           []setupTimes
}

// layerMetrics computes every per-layer metric. Layers a workload does
// not use report 0.
func (b *bench) layerMetrics(ctx context.Context, in layerInputs) (map[string]metric, error) {
	var obs, plainObs, rts, fetches, vertexRTs, hits, misses, distinct, updates int64
	for _, t := range in.tasks {
		obs += t.obs
	}
	for _, t := range in.plain {
		plainObs += t.obs
		rts += t.rts
		fetches += t.fetches
		vertexRTs += t.vertexRTs
		hits += t.hits
		misses += t.misses
		distinct += t.distinct
		updates += t.updates
	}
	if obs == 0 || plainObs == 0 {
		return nil, errors.New("the traced tasks made no observations")
	}
	n := float64(len(in.tasks))

	// The ladder: cumulative rung totals in ns, smallest stack first.
	ns := func(name string) float64 { return float64(total(in.spans, name).Nanoseconds()) }
	chains := [][]string{{rungCore, rungLive, rungJobs, rungJobsCkpt}}
	switch b.w.name {
	case "fs-job":
		chains = append(chains, []string{rungJobsCkpt, spanTask})
	case "fs-crawl":
		chains = append(chains, []string{rungLive, spanTask})
	case "fig5-sweep":
		chains = append(chains, []string{rungJobsPar2, rungSweepInProc, spanTask})
	}
	for _, c := range chains {
		rs := make([]float64, len(c))
		for i, name := range c {
			rs[i] = ns(name)
		}
		if err := checkRungs(c, rs); err != nil {
			return nil, err
		}
	}
	rungs := []float64{ns(rungCore), ns(rungLive), ns(rungJobs), ns(rungJobsCkpt)}
	self := ladderSelf(rungs)
	top := ns(spanTask)
	// The served task's control cost is what it takes beyond the rung
	// that does the same work in-process. On fs-job that makes the self
	// times add up to the traced job time by definition.
	var control, sweepSelf float64 // seconds
	switch b.w.name {
	case "fs-job":
		control = (top - rungs[3]) / n / 1e9
	case "fs-crawl":
		control = (top - rungs[1]) / n / 1e9
	case "fig5-sweep":
		perSweep := float64(len(in.tasks[0].jobIDs))
		control = (top - ns(rungSweepInProc)) / n / perSweep / 1e9
		sweepSelf = (top - ns(rungJobsPar2)) / n / 1e9
	}

	// The jobs layer, read from job traces and checkpoint files.
	var traces []jobs.Trace
	var files []string
	var jobObs int64
	if b.w.name == "fs-crawl" {
		// The crawl never touches the job service; its spec's jobs are
		// the ladder's.
		for _, j := range in.ladderJobs {
			traces = append(traces, j.Trace())
			files = append(files, filepath.Join(in.ladderDir, j.ID()+".json"))
			jobObs += j.Status().Edges
		}
	} else {
		for _, t := range in.tasks {
			jobObs += t.obs
			for _, id := range t.jobIDs {
				tr, err := b.ctl.JobTrace(ctx, id)
				if err != nil {
					return nil, err
				}
				traces = append(traces, tr)
				files = append(files, filepath.Join(b.e.ckptDir, id+".json"))
			}
		}
	}
	var ckpts int
	var waits []float64
	for _, tr := range traces {
		for _, ev := range tr.Events {
			if ev.Name == "checkpoint" {
				ckpts++
			}
		}
		queued, running, _, ok := eventTimes(tr)
		if !ok {
			return nil, fmt.Errorf("job %s: trace lacks queued/running/done events", tr.JobID)
		}
		waits = append(waits, running.Sub(queued).Seconds())
	}
	var ckptBytes float64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return nil, fmt.Errorf("checkpoint file: %w", err)
		}
		ckptBytes += float64(fi.Size())
	}

	var manifestKB float64
	if last := in.tasks[len(in.tasks)-1]; last.sweepID != "" {
		fi, err := os.Stat(filepath.Join(b.e.sweepDir, last.sweepID+".json"))
		if err != nil {
			return nil, fmt.Errorf("sweep manifest: %w", err)
		}
		manifestKB = float64(fi.Size()) / 1024
	}

	var build, write, open []float64
	for _, s := range in.setupRuns {
		bd, wd, od := s.durations(b.clk)
		build = append(build, bd.Seconds())
		write = append(write, wd.Seconds())
		open = append(open, od.Seconds())
	}
	rtt := seconds(in.rtts)
	kobs := float64(plainObs) / 1000
	return map[string]metric{
		"core.ns_per_obs":            {self[0] / float64(obs), "ns"},
		"live.ns_per_obs":            {self[1] / float64(obs), "ns"},
		"jobs.drive_ns_per_obs":      {self[2] / float64(obs), "ns"},
		"jobs.persist_ns_per_obs":    {self[3] / float64(obs), "ns"},
		"netgraph.control_s_per_job": {control, "s"},

		"live.reports_per_kobs":     {float64(updates) / kobs, "count"},
		"jobs.checkpoints_per_kobs": {ratio(1000*float64(ckpts), float64(jobObs)), "count"},
		"jobs.checkpoint_kb":        {ratio(ckptBytes/1024, float64(len(files))), "KB"},
		"jobs.queue_wait_s.p50":     {median(waits), "s"},

		"netgraph.rtt_s.p50":          {percentile(rtt, 50), "s"},
		"netgraph.rtt_s.p90":          {percentile(rtt, 90), "s"},
		"netgraph.resp_kb_per_rt":     {ratio(float64(in.respBytes)/1024, float64(rts)), "KB"},
		"netgraph.records_per_rt":     {ratio(float64(fetches), float64(vertexRTs)), "count"},
		"netgraph.cache_hit_ratio":    {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"netgraph.fetch_useful_ratio": {ratio(float64(distinct), float64(fetches)), "ratio"},

		"sweep.self_s":      {sweepSelf, "s"},
		"sweep.manifest_kb": {manifestKB, "KB"},

		"proc.alloc_mb_per_kobs": {in.proc.allocB / 1e6 / kobs, "MB"},
		"proc.gc_cpu_share":      {ratio(in.proc.gcCPU, in.proc.totalCPU), "ratio"},

		"gen.build_s":     {median(build), "s"},
		"graphio.write_s": {median(write), "s"},
		"graphio.open_s":  {median(open), "s"},

		"bench.trace_overhead": {in.tracedDur.Seconds() / in.plainDur.Seconds(), "ratio"},
	}, nil
}
