package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"frontier/internal/core"
	"frontier/internal/crawl"
	"frontier/internal/jobs"
	"frontier/internal/live"
	"frontier/internal/netgraph"
	"frontier/internal/sweep"
	"frontier/internal/xrand"
)

// The task specs of the three workloads.
const (
	jobM        = 64
	jobBudget   = 10000
	crawlM      = 64
	crawlBudget = 4000
	// crawlLatency is graphd's -latency for the crawl workload: the
	// modeled response time of an OSN API.
	crawlLatency = time.Millisecond
)

// task is one unit of closed-loop work and what it produced.
type task struct {
	k     int
	seed  uint64
	trace string
	start time.Time
	end   time.Time

	obs      int64
	estimate float64
	hash     string   // observation hash (fs-job, fs-crawl)
	jobIDs   []string // jobs the task ran on the served manager
	updates  int64    // live estimate reports
	rts      int64    // HTTP round trips the client made
	respB    int64    // response-body bytes the client read

	// Data plane (fs-crawl).
	fetches, vertexRTs, hits, misses, distinct int64

	// Sweep (fig5-sweep).
	sweepID   string
	artifacts map[string]string // name → sha256
	fsNMSE    float64
	nodes     int
	jobSpans  [][2]time.Time // per-job queued and done instants
}

// workload is one of the benchmark's task mixes.
type workload struct {
	name    string
	latency time.Duration
	// fixed is how many tasks every run completes: est_nmse and the
	// counts are taken over exactly these, so they repeat for a seed.
	fixed int
	// traced is how many tasks the traced run replays.
	traced int
	// quality is how many task specs est_nmse is taken over (see
	// bench.quality); 0 for the sweep, which reports its own NMSE.
	quality int
	// batch is how many consecutive tasks make one "sweep" for
	// sweep_s: a batch of jobs or crawls a client waits for together.
	// A fig5 sweep is one task.
	batch int
	run   func(ctx context.Context, b *bench, t *task) error
	// specs lists the job specs a finished task ran, for the ladder
	// and the replay checks.
	specs func(b *bench, t *task) ([]jobs.Spec, error)
}

func workloads() map[string]*workload {
	return map[string]*workload{
		"fs-job":     {name: "fs-job", fixed: 40, traced: 12, quality: 1000, batch: 10, run: runFSJob, specs: fsJobSpecs},
		"fs-crawl":   {name: "fs-crawl", latency: crawlLatency, fixed: 6, traced: 3, quality: 1000, batch: 3, run: runFSCrawl, specs: fsCrawlSpecs},
		"fig5-sweep": {name: "fig5-sweep", fixed: 4, traced: 1, batch: 1, run: runFig5, specs: fig5Specs},
	}
}

func fsJobSpec(seed uint64) jobs.Spec {
	return jobs.Spec{Graph: graphName, Method: "fs", M: jobM, Estimate: "avgdegree", Budget: jobBudget, Seed: seed}
}

func fsJobSpecs(_ *bench, t *task) ([]jobs.Spec, error) {
	return []jobs.Spec{fsJobSpec(t.seed)}, nil
}

// runFSJob submits one FS job to graphd and follows it over SSE to
// its terminal state.
func runFSJob(ctx context.Context, b *bench, t *task) error {
	var st, final jobs.Status
	err := b.tr.do("netgraph.Client.SubmitJob", func() (err error) {
		st, err = b.ctl.SubmitJob(ctx, fsJobSpec(t.seed))
		return err
	})
	if err != nil {
		return err
	}
	err = b.tr.do("netgraph.Client.FollowJob", func() (err error) {
		final, err = b.ctl.FollowJob(ctx, st.ID, nil)
		return err
	})
	if err != nil {
		return err
	}
	if final.State != jobs.StateDone || final.Estimate == nil {
		return fmt.Errorf("job %s ended %s without an estimate: %s", st.ID, final.State, final.Error)
	}
	t.obs, t.estimate, t.hash = final.Edges, *final.Estimate, final.EdgeHash
	t.jobIDs, t.updates = []string{st.ID}, final.EstimateUpdates
	return nil
}

// crawlSpec is the crawl's spec in job terms, which is what the local
// replay and the ladder run: the job builder's FS sampler does not
// prefetch, so an equal hash also shows prefetch never touches the RNG.
func crawlSpec(seed uint64) jobs.Spec {
	return jobs.Spec{Graph: graphName, Method: "fs", M: crawlM, Estimate: "avgdegree", Budget: crawlBudget, Seed: seed}
}

func fsCrawlSpecs(_ *bench, t *task) ([]jobs.Spec, error) {
	return []jobs.Spec{crawlSpec(t.seed)}, nil
}

// runFSCrawl runs FS client-side over graphd's data plane through a
// freshly dialed client, as fsample -url does: frontier prefetch every
// m/2 steps, avgdegree live runtime.
func runFSCrawl(ctx context.Context, b *bench, t *task) error {
	b.rt.closeIdle()
	var c *netgraph.Client
	err := b.tr.do("netgraph.Dial", func() (err error) {
		c, err = netgraph.Dial(b.e.baseURL, b.hc, netgraph.WithGraph(graphName), netgraph.WithContext(ctx))
		return err
	})
	if err != nil {
		return err
	}
	est, err := live.Default().New("avgdegree", c)
	if err != nil {
		return err
	}
	rt := live.NewRuntime(est, live.NewMonitor(live.MonitorConfig{}), nil)
	fs := &core.FrontierSampler{M: crawlM, PrefetchEvery: crawlM / 2}
	sess := crawl.NewSessionContext(ctx, c, crawlBudget, crawl.UnitCosts(), xrand.New(t.seed))
	seen := make([]uint64, (c.NumVertices()+63)/64)
	h := uint64(fnvOffset)
	err = b.tr.do("core.FrontierSampler.RunObs", func() error {
		return c.RunSafely(func() error {
			return fs.RunObs(sess, func(o core.Observation) {
				h = hashObs(h, o.U, o.V)
				t.obs++
				if w, bit := o.V>>6, uint64(1)<<(o.V&63); seen[w]&bit == 0 {
					seen[w] |= bit
					t.distinct++
				}
				if rt.ObserveSample(fs.LastWalker(), o) != nil {
					t.updates++
				}
			})
		})
	})
	if err != nil && !errors.Is(err, crawl.ErrBudgetExhausted) {
		return err
	}
	rep := rt.Report()
	if rep.Value == nil {
		return errors.New("crawl ended without an estimate")
	}
	t.estimate, t.hash = *rep.Value, fmt.Sprintf("%016x", h)
	t.fetches, t.vertexRTs = c.Fetches(), c.Roundtrips()
	t.hits, t.misses = c.CacheStats()
	return nil
}

// fig5Spec is the sweep of task k. A run's fixed tasks sweep distinct
// seeds, disjoint between workload seeds (seed s sweeps
// (s-1)·fixed+1 … s·fixed); later tasks repeat them in turn, so their
// artifacts must repeat byte for byte.
func fig5Spec(seed uint64, fixed, k int) sweep.Spec {
	return sweep.Spec{Artifact: "fig5", Graph: graphName, Seed: (seed-1)*uint64(fixed) + uint64(k%fixed) + 1}
}

func fig5Specs(b *bench, t *task) ([]jobs.Spec, error) {
	specs := make([]jobs.Spec, 0, len(t.jobIDs))
	for _, id := range t.jobIDs {
		j, ok := b.e.mgr.Get(id)
		if !ok {
			return nil, fmt.Errorf("sweep job %s not found", id)
		}
		specs = append(specs, j.Status().Spec)
	}
	return specs, nil
}

// runFig5 submits the fig5 sweep, follows it over SSE to its terminal
// state, downloads its artifacts and checks them against the digests
// the sweep advertises.
func runFig5(ctx context.Context, b *bench, t *task) error {
	var st, final sweep.Status
	err := b.tr.do("netgraph.Client.SubmitSweep", func() (err error) {
		st, err = b.ctl.SubmitSweep(ctx, fig5Spec(b.opts.seed, b.w.fixed, t.k))
		return err
	})
	if err != nil {
		return err
	}
	err = b.tr.do("netgraph.Client.FollowSweep", func() (err error) {
		final, err = b.ctl.FollowSweep(ctx, st.ID, nil)
		return err
	})
	if err != nil {
		return err
	}
	if final.State != sweep.StateDone {
		return fmt.Errorf("sweep %s ended %s: %s", st.ID, final.State, final.Error)
	}
	t.sweepID, t.nodes = st.ID, len(final.Nodes)
	for _, n := range final.Nodes {
		if n.State != sweep.NodeDone {
			return fmt.Errorf("sweep %s node %s ended %s: %s", st.ID, n.ID, n.State, n.Error)
		}
		if n.Kind == "job" {
			t.jobIDs = append(t.jobIDs, n.JobID)
		}
	}
	if !final.ChecksPass || len(final.Checks) == 0 {
		return fmt.Errorf("sweep %s: fig5 shape checks failed: %+v", st.ID, final.Checks)
	}
	t.artifacts = make(map[string]string)
	err = b.tr.do("netgraph.Client.SweepArtifact", func() error {
		for _, a := range final.Artifacts {
			data, err := b.ctl.SweepArtifact(ctx, st.ID, a.Name)
			if err != nil {
				return err
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != a.SHA256 {
				return fmt.Errorf("artifact %s: sha256 %s, sweep advertises %s", a.Name, got, a.SHA256)
			}
			t.artifacts[a.Name] = a.SHA256
			if a.Name == "fig5.json" {
				if t.fsNMSE, err = fsGeoMean(data); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if t.fsNMSE == 0 {
		return fmt.Errorf("sweep %s wrote no fig5.json", st.ID)
	}
	return nil
}

// fsGeoMean reads FS's geometric-mean NMSE from a fig5.json artifact.
func fsGeoMean(data []byte) (float64, error) {
	var doc struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("fig5.json: %w", err)
	}
	col := -1
	for i, h := range doc.Header {
		if h == "NMSE(FS)" {
			col = i
		}
	}
	for _, row := range doc.Rows {
		if col > 0 && len(row) > col && row[0] == "geo-mean" {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || !(v > 0) {
				return 0, fmt.Errorf("fig5.json: FS geo-mean %q", row[col])
			}
			return v, nil
		}
	}
	return 0, errors.New("fig5.json: no FS geo-mean row")
}
