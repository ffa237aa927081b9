// Command fsample runs a sampling method against a graph — local file
// or remote graphd URL — and prints the requested estimates.
//
// Usage:
//
//	fsample -graph g.fgrb -method fs -m 100 -budget 5000 -estimate degree
//	fsample -url http://localhost:8080 -method fs -m 64 -budget 2000 -estimate clustering
//	fsample -graph g.fg -method single -budget 1000 -estimate assortativity
//	fsample -graph g.fg -method fs -m 64 -budget 1e6 -estimate avgdegree -stop-ci 0.01 -json
//	fsample -url http://localhost:8080 -graph web -remote-job -follow \
//	    -method fs -m 64 -budget 100000 -estimate avgdegree -stop-ci 0.05
//
// Methods: fs, dfs, single, multiple, mhrw, rv, re, jump (a single
// random walk restarting at a uniform vertex, tuned by -jump-prob).
// Estimates: degree (CCDF of the in/out/sym distribution), clustering,
// assortativity, avgdegree. Every method feeds one weighted-observation
// estimation pipeline, so the uniform-vertex methods (mhrw, rv) and the
// jump walk estimate the same quantities as the edge samplers —
// clustering and assortativity excepted, which need edge observations
// that mhrw and rv do not emit.
//
// With -url, -graph names a hosted graph on a multi-graph graphd (empty
// selects the server's default graph); without -url it is a local file
// path.
//
// Remote crawls are batched: -cache-cap bounds the client's vertex LRU,
// -batch sets the prefetch batch size, and -prefetch controls how often
// FS prefetches its frontier's neighborhoods (default m/2 when remote).
//
// Adaptive stopping: -stop-ci ε attaches the live estimation subsystem
// (internal/live) to the run and halts it as soon as the estimate's
// ~95% confidence half-width is at most ε — locally by cancelling the
// session, remotely by submitting the job with a
// "ci_halfwidth<=ε" stop rule. The result then reports a "converged:"
// stop reason instead of "budget". For the degree estimate, -stop-ci
// and -json need -kind sym.
//
// -json prints the final result — estimate, confidence interval, steps
// used, stop reason, cache hit ratio — as a single machine-readable
// JSON object on stdout (human-readable progress still goes to the
// usual streams).
//
// -remote-job submits the run to the graphd job service instead of
// crawling client-side: the server samples the selected hosted graph in
// a worker pool and fsample waits for the job — with -follow streaming
// the live estimate frames over SSE (one line per report: value, CI,
// ESS, R-hat), otherwise waiting silently (SSE when available, else
// polling every -poll). Only -method, -m, -budget, -seed, -estimate,
// -stop-ci and -graph apply in this mode (the client-crawl flags
// -cache-cap/-batch/-prefetch/-kind/-diagnose are meaningless
// server-side, and -hit-ratio is rejected rather than ignored).
// -timeout bounds the whole run (local or remote) through a context; on
// expiry, in-flight HTTP requests abort and local sampling unwinds at
// the next budget charge.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"frontier/internal/core"
	"frontier/internal/crawl"
	"frontier/internal/estimate"
	"frontier/internal/graph"
	"frontier/internal/graphio"
	"frontier/internal/jobs"
	"frontier/internal/live"
	"frontier/internal/netgraph"
	"frontier/internal/obs"
	"frontier/internal/stats"
	"frontier/internal/walkstats"
	"frontier/internal/xrand"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "local graph file, or hosted graph name with -url (empty = server default)")
		url       = flag.String("url", "", "remote graphd base URL")
		methodStr = flag.String("method", "fs", "fs | dfs | single | multiple | mhrw | rv | re | jump")
		m         = flag.Int("m", 100, "walkers (fs, dfs, multiple)")
		jumpProb  = flag.Float64("jump-prob", 0.1, "uniform-restart probability α for -method jump (0 <= α < 1)")
		budget    = flag.Float64("budget", 1000, "sampling budget B")
		seed      = flag.Uint64("seed", 1, "deterministic seed")
		est       = flag.String("estimate", "degree", "degree | clustering | assortativity | avgdegree")
		kindStr   = flag.String("kind", "sym", "degree kind: in | out | sym")
		hitRatio  = flag.Float64("hit-ratio", 1, "random-vertex hit ratio h")
		diagnose  = flag.Bool("diagnose", false, "report convergence diagnostics (Geweke z, ESS) on the walk")
		stopCI    = flag.Float64("stop-ci", 0, "adaptive stop: halt once the estimate's ~95% CI half-width is <= this (0 = run to budget)")
		jsonOut   = flag.Bool("json", false, "print the final result as one machine-readable JSON object on stdout")
		cacheCap  = flag.Int("cache-cap", netgraph.DefaultCacheCapacity, "remote client vertex-cache capacity (LRU records; <= 0 unbounded)")
		batchSize = flag.Int("batch", netgraph.DefaultBatchSize, "remote client prefetch batch size")
		prefetch  = flag.Int("prefetch", -1, "FS frontier-prefetch interval in steps (0 off, -1 auto: m/2 when remote)")
		remoteJob = flag.Bool("remote-job", false, "submit the run to graphd's job service (-url) and wait for it instead of crawling client-side")
		follow    = flag.Bool("follow", false, "with -remote-job, stream live estimate frames over SSE and print each update")
		poll      = flag.Duration("poll", 0, "with -remote-job, polling interval when SSE is unavailable (0 = client default)")
		timeout   = flag.Duration("timeout", 0, "overall run timeout (0 = none); cancels in-flight requests and unwinds sampling")

		// Resilience flags (remote crawls; see netgraph.WithResilience).
		// Setting any of them wraps the client's transport in the chain
		// retry → breaker → limiter → hedge → attempt timeout.
		retriesF       = flag.Int("retries", 0, "max attempts per request incl. the first (0 = no resilience chain; 1 = chain without retries)")
		retryBase      = flag.Duration("retry-base", 0, "base backoff before the first retry (0 = 50ms default)")
		retryMax       = flag.Duration("retry-max", 0, "backoff cap, Retry-After included (0 = 5s default)")
		rateLimit      = flag.Float64("rate-limit", 0, "max requests/sec per host (token bucket; 0 = unlimited)")
		rateBurst      = flag.Int("rate-burst", 0, "token-bucket burst size (<1 = 1)")
		breakerAfter   = flag.Int("breaker-after", 0, "trip the circuit breaker after this many consecutive failures (0 = no breaker)")
		breakerCool    = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before the half-open probe (0 = 1s default)")
		hedgeDelay     = flag.Duration("hedge", 0, "hedge idempotent requests still unresolved after this delay (0 = off)")
		attemptTimeout = flag.Duration("attempt-timeout", 0, "per-attempt deadline; a timed-out attempt is retried (0 = off)")

		// Observability flags. The default level is warn: a CLI's stdout
		// is its result, so informational logging is opt-in.
		logLevel  = flag.String("log-level", "warn", "log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		traceF    = flag.Bool("trace", false, "mint a trace ID for this run (propagated to graphd via X-Trace-Id); with -remote-job, print the job's span timeline at the end")
	)
	flag.Parse()

	level, lerr := obs.ParseLevel(*logLevel)
	if lerr != nil {
		fmt.Fprintf(os.Stderr, "fsample: %v\n", lerr)
		os.Exit(2)
	}
	logger, lerr := obs.NewLogger(os.Stderr, level, *logFormat)
	if lerr != nil {
		fmt.Fprintf(os.Stderr, "fsample: %v\n", lerr)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// The chain is enabled by any resilience flag; its jitter stream
	// shares -seed so a faulted rerun replays the same backoff schedule.
	var resilience []netgraph.Option
	if *retriesF != 0 || *rateLimit > 0 || *breakerAfter > 0 || *hedgeDelay > 0 || *attemptTimeout > 0 {
		resilience = append(resilience, netgraph.WithResilience(netgraph.ResilienceConfig{
			MaxAttempts:      *retriesF,
			RetryBase:        *retryBase,
			RetryMax:         *retryMax,
			Seed:             *seed,
			RateLimit:        *rateLimit,
			RateBurst:        *rateBurst,
			BreakerThreshold: *breakerAfter,
			BreakerCooldown:  *breakerCool,
			HedgeDelay:       *hedgeDelay,
			AttemptTimeout:   *attemptTimeout,
		}))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *traceF {
		// The ID rides every request this run issues as X-Trace-Id, so
		// server-side log lines and job statuses correlate with this run.
		id := obs.NewTraceID()
		ctx = obs.WithTraceID(ctx, id)
		fmt.Fprintf(os.Stderr, "trace id: %s\n", id)
	}

	if *remoteJob {
		if *url == "" {
			fmt.Fprintln(os.Stderr, "fsample: -remote-job needs -url")
			os.Exit(2)
		}
		// The job service runs the paper's unit cost model server-side;
		// silently dropping a non-default -hit-ratio would make the
		// remote result incomparable to the local run it names.
		if *hitRatio != 1 {
			fmt.Fprintln(os.Stderr, "fsample: -hit-ratio is not supported by -remote-job (the job service runs unit costs)")
			os.Exit(2)
		}
		cfg := remoteJobConfig{
			url: *url, graph: *graphPath, method: *methodStr,
			m: *m, budget: *budget, seed: *seed, est: *est,
			stopCI: *stopCI, jsonOut: *jsonOut,
			follow: *follow, poll: *poll, trace: *traceF,
			dialOpts: resilience,
		}
		if *methodStr == "jump" {
			// Only the jump method carries the restart probability; the
			// server rejects a non-zero jump_prob on any other method, so
			// the flag's default must not leak into other specs.
			cfg.jumpProb = *jumpProb
		}
		runRemoteJob(ctx, cfg)
		return
	}

	var kind graph.DegreeKind
	switch *kindStr {
	case "in":
		kind = graph.InDeg
	case "out":
		kind = graph.OutDeg
	case "sym":
		kind = graph.SymDeg
	default:
		fmt.Fprintf(os.Stderr, "fsample: unknown degree kind %q\n", *kindStr)
		os.Exit(2)
	}

	// Resolve the graph source: estimators need the richer EdgeView; the
	// session only needs crawl.Source.
	var (
		src      crawl.Source
		view     estimate.EdgeView
		runSafe  func(func() error) error
		isRemote bool
	)
	switch {
	case *url != "":
		// With -url, -graph selects a hosted graph by name rather than a
		// local file.
		c, err := netgraph.Dial(*url, nil, append([]netgraph.Option{
			netgraph.WithCacheCapacity(*cacheCap),
			netgraph.WithBatchSize(*batchSize),
			netgraph.WithGraph(*graphPath),
			netgraph.WithContext(ctx)}, resilience...)...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
			os.Exit(1)
		}
		src, view = c, c
		runSafe = c.RunSafely
		isRemote = true
	case *graphPath != "":
		g, err := graphio.LoadFile(*graphPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
			os.Exit(1)
		}
		src, view = g, g
		runSafe = func(fn func() error) error { return fn() }
	default:
		fmt.Fprintln(os.Stderr, "fsample: need -graph or -url")
		os.Exit(2)
	}

	model := crawl.UnitCosts()
	model.VertexHitRatio = *hitRatio

	// -prefetch -1 resolves to m/2 on remote graphs (batch the frontier's
	// neighborhoods to hide round-trip latency) and off for local files,
	// where prefetch advice is a no-op that still costs enumeration. A
	// cache too small to hold the frontier working set makes prefetching
	// counterproductive (each round evicts what the last one fetched), so
	// auto mode also stays off there; -prefetch N forces it regardless.
	prefetchEvery := *prefetch
	if prefetchEvery < 0 {
		prefetchEvery = 0
		if isRemote && (*cacheCap <= 0 || *cacheCap >= 4**m) {
			prefetchEvery = *m / 2
		}
	}

	// Every method is an ObservationSampler (the live estimation path);
	// the edge/vertex sampler variables additionally select the classic
	// estimate-package paths below.
	var sampler core.EdgeSampler
	var vsampler core.VertexSampler
	var obsSampler core.ObservationSampler
	switch *methodStr {
	case "fs":
		fs := &core.FrontierSampler{M: *m, PrefetchEvery: prefetchEvery}
		sampler, obsSampler = fs, fs
	case "dfs":
		d := &core.DistributedFS{M: *m}
		sampler, obsSampler = d, d
	case "single":
		s := &core.SingleRW{}
		sampler, obsSampler = s, s
	case "multiple":
		mr := &core.MultipleRW{M: *m}
		sampler, obsSampler = mr, mr
	case "mhrw":
		mh := &core.MetropolisRW{}
		vsampler, obsSampler = mh, mh
	case "rv":
		rv := &core.RandomVertexSampler{}
		vsampler, obsSampler = rv, rv
	case "re":
		re := &core.RandomEdgeSampler{}
		sampler, obsSampler = re, re
	case "jump":
		if *jumpProb < 0 || *jumpProb >= 1 {
			fmt.Fprintf(os.Stderr, "fsample: -jump-prob must be in [0,1), got %g\n", *jumpProb)
			os.Exit(2)
		}
		obsSampler = &core.JumpRW{JumpProb: *jumpProb}
	default:
		fmt.Fprintf(os.Stderr, "fsample: unknown method %q\n", *methodStr)
		os.Exit(2)
	}

	// The live path (adaptive stopping, JSON results, and every run of
	// the weighted-observation-only jump method) routes the run through
	// internal/live so every estimate gains a confidence interval and a
	// stop verdict; the classic paths below are unchanged.
	if *stopCI > 0 || *jsonOut || *methodStr == "jump" {
		if *est == "degree" && kind != graph.SymDeg {
			if *methodStr == "jump" {
				// jump has no classic path to fall back to: its weighted
				// stream only exists on the live surface.
				fmt.Fprintln(os.Stderr, "fsample: the live degree estimator tracks sym degrees; method jump supports -kind sym only")
			} else {
				fmt.Fprintln(os.Stderr, "fsample: the live degree estimator tracks sym degrees; use -kind sym (or drop -stop-ci/-json)")
			}
			os.Exit(2)
		}
		runLocalLive(ctx, localLiveConfig{
			src: src, method: *methodStr, sampler: obsSampler, runSafe: runSafe,
			model: model, budget: *budget, seed: *seed,
			est: *est, stopCI: *stopCI, jsonOut: *jsonOut,
			isRemote: isRemote,
		})
		return
	}

	sess := crawl.NewSessionContext(ctx, src, *budget, model, xrand.New(*seed))

	ignoreExhaustion := func(err error) error {
		if errors.Is(err, crawl.ErrBudgetExhausted) {
			return nil
		}
		return err
	}

	switch *est {
	case "degree":
		if vsampler != nil {
			e := estimate.NewPlainDegreeDist(view, kind)
			if err := runSafe(func() error { return ignoreExhaustion(vsampler.RunVertices(sess, e.ObserveVertex)) }); err != nil {
				fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
				os.Exit(1)
			}
			printCCDF(e.CCDF())
		} else {
			e := estimate.NewDegreeDist(view, kind)
			if err := runSafe(func() error { return ignoreExhaustion(sampler.Run(sess, e.Observe)) }); err != nil {
				fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
				os.Exit(1)
			}
			printCCDF(e.CCDF())
		}
	case "clustering":
		requireEdgeSampler(sampler, *methodStr)
		e := estimate.NewClustering(view)
		if err := runSafe(func() error { return ignoreExhaustion(sampler.Run(sess, e.Observe)) }); err != nil {
			fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("global clustering estimate: %.5f\n", e.Estimate())
	case "assortativity":
		requireEdgeSampler(sampler, *methodStr)
		e := estimate.NewAssortativity(view, false)
		if err := runSafe(func() error { return ignoreExhaustion(sampler.Run(sess, e.Observe)) }); err != nil {
			fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("assortativity estimate: %.5f\n", e.Estimate())
	case "avgdegree":
		requireEdgeSampler(sampler, *methodStr)
		e := estimate.NewAvgDegree(view)
		if err := runSafe(func() error { return ignoreExhaustion(sampler.Run(sess, e.Observe)) }); err != nil {
			fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("average degree estimate: %.3f\n", e.Estimate())
	default:
		fmt.Fprintf(os.Stderr, "fsample: unknown estimate %q\n", *est)
		os.Exit(2)
	}

	sess.SyncRetries()
	st := sess.Stats()
	fmt.Printf("budget spent: %.0f (steps %d, vertex queries %d, misses %d)\n",
		st.Spent, st.Steps, st.VertexQueries, st.VertexMisses)
	if isRemote {
		printCacheLine(src.(*netgraph.Client))
		printResilienceLine(src.(*netgraph.Client), st)
	}

	if *diagnose && sampler != nil {
		// Re-run the same walk (same seed) collecting the 1/deg series
		// the estimators weight by, and report stationarity diagnostics.
		dsess := crawl.NewSessionContext(ctx, src, *budget, model, xrand.New(*seed))
		var series []float64
		err := runSafe(func() error {
			return ignoreExhaustion(sampler.Run(dsess, func(u, v int) {
				series = append(series, 1/float64(view.SymDegree(v)))
			}))
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsample: diagnostics: %v\n", err)
			os.Exit(1)
		}
		if z, err := walkstats.Geweke(series, 0.1, 0.5); err == nil {
			verdict := "consistent with stationarity"
			if z > 2 || z < -2 {
				verdict = "NOT stationary (|z| > 2) — consider a larger m or budget"
			}
			fmt.Printf("Geweke z: %.2f (%s)\n", z, verdict)
		} else {
			fmt.Printf("Geweke z: %v\n", err)
		}
		if ess, err := walkstats.EffectiveSampleSize(series); err == nil {
			fmt.Printf("effective sample size: %.0f of %d walk samples\n", ess, len(series))
		}
	}
}

// liveEstimateName maps fsample's -estimate vocabulary to the live
// registry's.
func liveEstimateName(est string) (string, error) {
	switch est {
	case "degree":
		return "degreedist", nil
	case "clustering", "assortativity", "avgdegree":
		return est, nil
	default:
		return "", fmt.Errorf("fsample: unknown estimate %q", est)
	}
}

// jsonResult is the -json output: one machine-readable object holding
// the final estimate, its confidence interval, the work done and why
// the run stopped.
type jsonResult struct {
	Method        string             `json:"method"`
	Estimate      string             `json:"estimate"`
	Value         *float64           `json:"value,omitempty"`
	CI            *live.Interval     `json:"ci,omitempty"`
	Vector        *live.VectorResult `json:"vector,omitempty"`
	Diagnostics   *live.Diagnostics  `json:"diagnostics,omitempty"`
	Edges         int64              `json:"edges"`
	BudgetSpent   float64            `json:"budget_spent"`
	Budget        float64            `json:"budget"`
	StopReason    string             `json:"stop_reason"`
	CacheHitRatio *float64           `json:"cache_hit_ratio,omitempty"`
	JobID         string             `json:"job_id,omitempty"`
	EdgeHash      string             `json:"edge_hash,omitempty"`
	// Retries/RetrySpent are the resilience chain's retry ledger
	// (quota spent surviving faults, separate from budget_spent);
	// Breaker is the circuit breaker's final state. Omitted without a
	// resilience chain.
	Retries    int64   `json:"retries,omitempty"`
	RetrySpent float64 `json:"retry_spent,omitempty"`
	Breaker    string  `json:"breaker,omitempty"`
}

// emitJSON prints the result object on stdout.
func emitJSON(res jsonResult) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "fsample: encoding result: %v\n", err)
		os.Exit(1)
	}
}

// cacheHitRatio returns the client's hit ratio (nil before any lookup).
func cacheHitRatio(c *netgraph.Client) *float64 {
	hits, misses := c.CacheStats()
	if hits+misses == 0 {
		return nil
	}
	r := float64(hits) / float64(hits+misses)
	return &r
}

// printResilienceLine reports what surviving faults cost: retry
// attempts (charged to the session's retry ledger, not the sampling
// budget), hedge legs, and the breaker's final state. Silent without a
// resilience chain or when nothing fired.
func printResilienceLine(c *netgraph.Client, st crawl.Stats) {
	if st.Retries == 0 && c.Hedges() == 0 && c.BreakerState() == "" {
		return
	}
	line := fmt.Sprintf("resilience: %d retries (%.0f budget units), %d hedges",
		st.Retries, st.RetrySpent, c.Hedges())
	if bs := c.BreakerState(); bs != "" {
		line += ", breaker " + bs
	}
	fmt.Println(line)
}

// printCacheLine reports the remote client's fetch/cache counters.
func printCacheLine(c *netgraph.Client) {
	ratio := 0.0
	if r := cacheHitRatio(c); r != nil {
		ratio = *r
	}
	fmt.Printf("remote fetches: %d records in %d round trips (cache %d/%d, hit ratio %.2f)\n",
		c.Fetches(), c.Roundtrips(), c.CacheLen(), c.CacheCapacity(), ratio)
}

// localLiveConfig carries the flags of a client-side live-estimation
// run.
type localLiveConfig struct {
	src      crawl.Source
	method   string // the -method flag value, used verbatim in -json output
	sampler  core.ObservationSampler
	runSafe  func(func() error) error
	model    crawl.CostModel
	budget   float64
	seed     uint64
	est      string
	stopCI   float64
	jsonOut  bool
	isRemote bool
}

// runLocalLive drives the sampler's weighted observation stream
// through a live estimation runtime: the estimate gains a confidence
// interval, and with a stop-ci bound the session is cancelled the
// moment the CI is tight enough. If the estimate needs edge
// observations the method does not emit (clustering over mhrw), the
// registry-built estimator never qualifies an observation and the run
// is rejected up front instead.
func runLocalLive(ctx context.Context, cfg localLiveConfig) {
	name, err := liveEstimateName(cfg.est)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	est, err := live.Default().New(name, cfg.src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
		os.Exit(1)
	}
	// The method registry knows which streams carry edge observations;
	// methods fsample builds outside the registry vocabulary would skip
	// the check, but -method only accepts registered names.
	if method, ok := jobs.DefaultMethods().Get(cfg.method); ok && est.NeedsEdges() && !method.EmitsEdges {
		fmt.Fprintf(os.Stderr, "fsample: estimate %q needs edge observations, which method %q does not emit\n", name, cfg.method)
		os.Exit(2)
	}
	var rule *live.StopRule
	if cfg.stopCI > 0 {
		rule, err = live.ParseStopRule(fmt.Sprintf("ci_halfwidth<=%g", cfg.stopCI))
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
			os.Exit(2)
		}
	}
	rt := live.NewRuntime(est, live.NewMonitor(live.MonitorConfig{}), rule)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sess := crawl.NewSessionContext(runCtx, cfg.src, cfg.budget, cfg.model, xrand.New(cfg.seed))
	tracker, _ := cfg.sampler.(core.WalkerTracker)
	var observations int64
	err = cfg.runSafe(func() error {
		return cfg.sampler.RunObs(sess, func(o core.Observation) {
			observations++
			walker := 0
			if tracker != nil {
				walker = tracker.LastWalker()
			}
			if rep := rt.ObserveSample(walker, o); rep != nil && rep.Converged {
				cancel() // adaptive stop: unwind at the next budget charge
			}
		})
	})
	converged, reason := rt.Converged()
	switch {
	case err == nil || errors.Is(err, crawl.ErrBudgetExhausted):
	case errors.Is(err, context.Canceled) && converged:
		// Our own adaptive stop, not an external cancellation.
	default:
		fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
		os.Exit(1)
	}
	stopReason := jobs.StopReasonBudget
	if converged {
		stopReason = reason
	}

	rep := rt.Report()
	sess.SyncRetries()
	st := sess.Stats()
	if cfg.jsonOut {
		// Method is the flag vocabulary ("fs"), not the sampler's display
		// name, so local and remote -json outputs of one spec compare
		// equal field by field.
		res := jsonResult{
			Method:      cfg.method,
			Estimate:    name,
			Value:       rep.Value,
			CI:          rep.CI,
			Vector:      rep.Vector,
			Diagnostics: &rep.Diagnostics,
			Edges:       observations,
			BudgetSpent: st.Spent,
			Budget:      cfg.budget,
			StopReason:  stopReason,
		}
		if cfg.isRemote {
			c := cfg.src.(*netgraph.Client)
			res.CacheHitRatio = cacheHitRatio(c)
			res.Retries = st.Retries
			res.RetrySpent = st.RetrySpent
			res.Breaker = c.BreakerState()
		}
		emitJSON(res)
		return
	}
	if rep.Vector != nil && rep.Vector.Kind == "degree_ccdf" {
		printCCDF(rep.Vector.Values)
	}
	if rep.Value != nil {
		line := fmt.Sprintf("%s estimate: %.5f", cfg.est, *rep.Value)
		if rep.CI != nil {
			line += fmt.Sprintf(" ± %.5f (95%% CI)", rep.CI.HalfWidth)
		}
		fmt.Println(line)
	}
	fmt.Printf("stop reason: %s\n", stopReason)
	fmt.Printf("budget spent: %.0f of %.0f (steps %d, vertex queries %d, misses %d)\n",
		st.Spent, cfg.budget, st.Steps, st.VertexQueries, st.VertexMisses)
	if cfg.isRemote {
		printCacheLine(cfg.src.(*netgraph.Client))
		printResilienceLine(cfg.src.(*netgraph.Client), st)
	}
}

// remoteJobConfig carries the flags that apply to a server-side job
// run.
type remoteJobConfig struct {
	url      string
	graph    string // hosted graph name ("" = server default)
	method   string
	m        int
	jumpProb float64 // restart probability (method "jump" only)
	budget   float64
	seed     uint64
	est      string
	stopCI   float64
	jsonOut  bool
	follow   bool
	poll     time.Duration
	trace    bool              // print the job's span timeline when it ends
	dialOpts []netgraph.Option // resilience options for the control-plane client
}

// runRemoteJob submits the run as a server-side sampling job, waits for
// it (streaming live estimate frames with -follow) and prints the final
// status.
func runRemoteJob(ctx context.Context, cfg remoteJobConfig) {
	c, err := netgraph.Dial(cfg.url, nil, append([]netgraph.Option{
		netgraph.WithContext(ctx),
		netgraph.WithGraph(cfg.graph),
		netgraph.WithPollInterval(cfg.poll)}, cfg.dialOpts...)...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
		os.Exit(1)
	}
	estName, err := liveEstimateName(cfg.est)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec := jobs.Spec{
		Graph: cfg.graph, Method: cfg.method, M: cfg.m, JumpProb: cfg.jumpProb,
		Budget: cfg.budget, Seed: cfg.seed, Estimate: estName,
	}
	if cfg.stopCI > 0 {
		spec.StopRule = fmt.Sprintf("ci_halfwidth<=%g", cfg.stopCI)
	}
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "submitted %s (%s on %q, m=%d, budget %.0f, stop rule %q)\n",
		st.ID, cfg.method, st.Spec.Graph, cfg.m, cfg.budget, spec.StopRule)

	var final jobs.Status
	if cfg.follow {
		final, err = c.FollowEstimates(ctx, st.ID, func(rep live.Report) {
			line := fmt.Sprintf("%s: n=%d", rep.Estimator, rep.Observations)
			if rep.Value != nil {
				line += fmt.Sprintf("  estimate %.5f", *rep.Value)
			}
			if rep.CI != nil {
				line += fmt.Sprintf(" ± %.5f", rep.CI.HalfWidth)
			}
			if rep.Diagnostics.ESS != nil {
				line += fmt.Sprintf("  ess %.0f", *rep.Diagnostics.ESS)
			}
			if rep.Diagnostics.RHat != nil {
				line += fmt.Sprintf("  rhat %.3f", *rep.Diagnostics.RHat)
			}
			if rep.Converged {
				line += "  [converged]"
			}
			fmt.Fprintln(os.Stderr, line)
		})
		if err != nil && ctx.Err() == nil {
			// The stream broke without our context expiring (old server,
			// proxy): fall back to waiting quietly. PollJob, not WaitJob —
			// the SSE path just failed, don't try it a second time.
			fmt.Fprintf(os.Stderr, "fsample: event stream unavailable (%v); polling\n", err)
			final, err = c.PollJob(ctx, st.ID, cfg.poll)
		}
	} else {
		final, err = c.WaitJob(ctx, st.ID, cfg.poll)
	}
	if err != nil {
		// The run is bounded by -timeout: tell the server to stop too.
		if _, cerr := c.CancelJob(context.Background(), st.ID); cerr == nil {
			fmt.Fprintf(os.Stderr, "fsample: %v (job %s cancelled)\n", err, st.ID)
		} else {
			fmt.Fprintf(os.Stderr, "fsample: %v\n", err)
		}
		os.Exit(1)
	}
	if cfg.trace {
		// Printed before the result (and before a failure exit): the span
		// timeline is most useful exactly when the job did not end well.
		printJobTrace(ctx, c, final.ID)
	}
	if final.State != jobs.StateDone {
		fmt.Fprintf(os.Stderr, "fsample: job %s ended %s: %s\n", final.ID, final.State, final.Error)
		os.Exit(1)
	}
	// The estimates endpoint has the CI and diagnostics the status
	// lacks; best-effort — old servers without it still print the
	// status-level result.
	var rep *live.Report
	if r, rerr := c.JobEstimates(ctx, final.ID); rerr == nil {
		rep = &r
	}
	if cfg.jsonOut {
		res := jsonResult{
			Method:      cfg.method,
			Estimate:    estName,
			Value:       final.Estimate,
			Edges:       final.Edges,
			BudgetSpent: final.Spent,
			Budget:      cfg.budget,
			StopReason:  final.StopReason,
			JobID:       final.ID,
			EdgeHash:    final.EdgeHash,
			Retries:     final.Retries,
			RetrySpent:  final.RetrySpent,
			Breaker:     final.Breaker,
		}
		if rep != nil {
			res.CI = rep.CI
			res.Vector = rep.Vector
			res.Diagnostics = &rep.Diagnostics
		}
		emitJSON(res)
		return
	}
	if final.Estimate != nil {
		line := fmt.Sprintf("%s estimate: %.5f", final.Spec.Estimate, *final.Estimate)
		if rep != nil && rep.CI != nil {
			line += fmt.Sprintf(" ± %.5f (95%% CI)", rep.CI.HalfWidth)
		}
		fmt.Println(line)
	}
	if final.StopReason != "" {
		fmt.Printf("stop reason: %s\n", final.StopReason)
	}
	fmt.Printf("budget spent: %.0f (%d edges sampled, edge hash %s)\n", final.Spent, final.Edges, final.EdgeHash)
	if final.Retries > 0 || final.Breaker != "" {
		line := fmt.Sprintf("resilience: %d retries (%.0f budget units)", final.Retries, final.RetrySpent)
		if final.Breaker != "" {
			line += ", breaker " + final.Breaker
		}
		fmt.Println(line)
	}
}

// printJobTrace fetches and prints the job's span timeline to stderr:
// one line per event (lifecycle transitions, checkpoints, and the
// crawl retry/hedge/breaker events the resilient source emitted).
func printJobTrace(ctx context.Context, c *netgraph.Client, id string) {
	tr, err := c.JobTrace(ctx, id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsample: job trace unavailable: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "trace %s: %d events (%d dropped)\n", tr.TraceID, len(tr.Events), tr.Dropped)
	for _, ev := range tr.Events {
		line := fmt.Sprintf("  %s %s", ev.Time.Format("15:04:05.000"), ev.Name)
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func requireEdgeSampler(s core.EdgeSampler, name string) {
	if s == nil {
		fmt.Fprintf(os.Stderr, "fsample: method %q emits vertices; this estimate needs an edge sampler\n", name)
		os.Exit(2)
	}
}

func printCCDF(gamma []float64) {
	fmt.Println("degree\tCCDF")
	for _, i := range stats.LogBuckets(len(gamma), 4) {
		if gamma[i] <= 0 {
			continue
		}
		fmt.Printf("%d\t%.6g\n", i, gamma[i])
	}
}
