package netgraph

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"frontier/internal/crawl"
	"frontier/internal/estimate"
	"frontier/internal/graph"
	"frontier/internal/jobs"
	"frontier/internal/live"
	"frontier/internal/obs"
)

// DefaultCacheCapacity bounds the vertex cache when no explicit capacity
// is configured: enough for every experiment graph in this repository
// while still guaranteeing bounded memory on an arbitrarily large crawl.
const DefaultCacheCapacity = 1 << 20

// DefaultBatchSize is the number of vertex ids sent per batch round trip
// when no explicit size is configured.
const DefaultBatchSize = 256

// DefaultPollInterval is how often WaitJob polls a job's status when the
// server does not support SSE streaming and no WithPollInterval was
// configured.
const DefaultPollInterval = 50 * time.Millisecond

// Option configures a Client.
type Option func(*Client)

// WithCacheCapacity bounds the client's vertex cache to at most n
// records, evicting least-recently-used entries. n <= 0 means unbounded
// (the pre-LRU behavior; use only for small graphs).
func WithCacheCapacity(n int) Option {
	return func(c *Client) { c.cache.cap = n }
}

// WithBatchSize sets how many vertex ids PrefetchVertices packs into one
// POST /v1/vertices round trip, clamped to the server's MaxBatchIDs (a
// larger batch would be rejected with 413).
func WithBatchSize(n int) Option {
	return func(c *Client) {
		if n > MaxBatchIDs {
			n = MaxBatchIDs
		}
		if n > 0 {
			c.batchSize = n
		}
	}
}

// WithGraph selects the named graph on a multi-graph server: every
// metadata, vertex and batch request carries ?graph=name, and job specs
// submitted without an explicit Graph are routed to it. The zero value
// targets the server's default graph, which is what single-graph
// deployments serve.
func WithGraph(name string) Option {
	return func(c *Client) { c.graph = name }
}

// WithPollInterval sets how often WaitJob polls a job's status when it
// has to fall back from SSE streaming to polling (default
// DefaultPollInterval). Raise it for long-running jobs against a busy
// server — each poll is a full HTTP round trip — and lower it only in
// tests that need tight completion latency. d <= 0 keeps the default.
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.pollInterval = d
		}
	}
}

// WithContext attaches ctx to every HTTP request the client issues —
// Dial's metadata fetch, vertex and batch fetches, and the job calls
// that take no explicit context. Cancelling it aborts in-flight round
// trips, which is how cancelling a sampling run over a remote graph
// unwinds promptly instead of waiting out a slow response.
func WithContext(ctx context.Context) Option {
	return func(c *Client) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// Client crawls a graph served by Server. It caches vertex records so
// that a random walk revisiting a vertex does not re-query the server —
// matching the paper's cost model, where only first-time queries cost
// budget (the session still charges per step; the cache saves network
// round trips, not budget).
//
// The cache is a capacity-bounded LRU, so crawling a graph larger than
// memory is safe: at most CacheCapacity records are retained and evicted
// vertices are transparently refetched. Concurrent fetches of the same
// vertex (e.g. ParallelDFS walkers colliding) are deduplicated into a
// single round trip, and PrefetchVertices implements crawl.BatchSource
// with one POST per batch of ids.
//
// Client implements crawl.Source, crawl.BatchSource and
// estimate.EdgeView, so samplers and estimators run against it directly.
// It is safe for concurrent use.
type Client struct {
	base         string
	hc           *http.Client
	ctx          context.Context // base context for every request
	graph        string          // named graph on a multi-graph server ("" = default)
	meta         Meta
	batchSize    int
	pollInterval time.Duration

	resCfg *ResilienceConfig // set by WithResilience; consumed in Dial
	res    *resilience       // assembled middleware state (nil without WithResilience)

	mu       sync.Mutex
	cache    lruCache
	inflight map[int]*inflightFetch

	fetches     int64 // vertex records fetched over the network
	roundtrips  int64 // HTTP round trips carrying vertex data (single + batch)
	cacheHits   int64 // Vertex() calls answered from the cache
	cacheMisses int64 // Vertex() calls that had to fetch
}

// inflightFetch is a single-flight slot: the first goroutine to miss the
// cache performs the fetch; later goroutines wait on done and share the
// result instead of issuing a duplicate request.
type inflightFetch struct {
	done chan struct{}
	rec  *VertexRecord
	err  error
}

// Compile-time interface checks.
var (
	_ crawl.Source      = (*Client)(nil)
	_ crawl.BatchSource = (*Client)(nil)
	_ estimate.EdgeView = (*Client)(nil)
	_ live.GroupSource  = (*Client)(nil)
)

// Dial fetches the remote graph's metadata and returns a client.
// baseURL is e.g. "http://localhost:8080".
func Dial(baseURL string, hc *http.Client, opts ...Option) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{
		base:         baseURL,
		hc:           hc,
		ctx:          context.Background(),
		batchSize:    DefaultBatchSize,
		pollInterval: DefaultPollInterval,
		cache:        newLRUCache(DefaultCacheCapacity),
		inflight:     make(map[int]*inflightFetch),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.resCfg != nil {
		// Wrap a shallow copy of the caller's http.Client so the chain
		// is private to this netgraph client. The meta fetch below
		// already benefits: a flapping server no longer fails Dial.
		c.res = newResilience(*c.resCfg)
		hc2 := *c.hc
		base := hc2.Transport
		if base == nil {
			base = http.DefaultTransport
		}
		hc2.Transport = c.res.wrap(base)
		c.hc = &hc2
	}
	var err error
	if c.meta, err = call[Meta](c.ctx, c, "meta", http.MethodGet, c.gpath("/v1/meta"), nil); err != nil {
		return nil, err
	}
	return c, nil
}

// Meta returns the remote graph's metadata.
func (c *Client) Meta() Meta { return c.meta }

// GraphName returns the name of the served graph this client targets
// ("" = the server's default graph).
func (c *Client) GraphName() string { return c.graph }

// gpath appends the client's graph selector to an API path, routing the
// request to the named graph on a multi-graph server.
func (c *Client) gpath(p string) string {
	if c.graph == "" {
		return p
	}
	sep := "?"
	if strings.Contains(p, "?") {
		sep = "&"
	}
	return p + sep + "graph=" + url.QueryEscape(c.graph)
}

// Fetches returns the number of vertex records fetched over the network
// (cache misses, including records arriving via batch prefetch).
func (c *Client) Fetches() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fetches
}

// Roundtrips returns the number of HTTP round trips that carried vertex
// data: one per single-vertex fetch and one per batch, regardless of how
// many records the batch held. This is the latency-bound quantity a
// crawler of a slow OSN API minimizes.
func (c *Client) Roundtrips() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundtrips
}

// CacheStats returns how many Vertex calls were answered without a
// dedicated round trip (hits: cached records plus results shared from
// another goroutine's in-flight fetch) and how many had to fetch
// (misses). The ratio hits/(hits+misses) is the cache hit ratio fsample
// reports after a remote crawl.
func (c *Client) CacheStats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cacheHits, c.cacheMisses
}

// CacheLen returns the number of vertex records currently cached (at
// most the configured capacity).
func (c *Client) CacheLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache.len()
}

// CacheCapacity returns the cache bound (<= 0 means unbounded).
func (c *Client) CacheCapacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache.cap
}

// Retries returns the total number of retry attempts the resilience
// chain has issued (0 without WithResilience). Each retry was a real
// round trip against the API, which is why crawl sessions charge them
// to the budget's retry ledger.
func (c *Client) Retries() int64 {
	if c.res == nil {
		return 0
	}
	return c.res.retries.Load()
}

// TakeRetries implements crawl.RetryTaker: it returns the number of
// retries issued since the previous take, so a session can charge each
// exactly once. Returns 0 without WithResilience.
func (c *Client) TakeRetries() int64 {
	if c.res == nil {
		return 0
	}
	return c.res.takeRetries()
}

// Hedges returns the number of hedge legs launched (0 without
// WithResilience or with hedging disabled).
func (c *Client) Hedges() int64 {
	if c.res == nil {
		return 0
	}
	return c.res.hedges.Load()
}

// BreakerState implements crawl.BreakerStater: it returns the circuit
// breaker's current state ("closed", "open" or "half-open"), or "" when
// no breaker is configured.
func (c *Client) BreakerState() string {
	if c.res == nil {
		return ""
	}
	return c.res.breakerState()
}

// ResilienceState implements crawl.ResilienceCarrier: it serializes the
// middleware chain's mutable state (breaker state machine, limiter
// token balances, jitter stream) for a session checkpoint. Returns
// (nil, nil) without WithResilience.
func (c *Client) ResilienceState() (json.RawMessage, error) {
	if c.res == nil {
		return nil, nil
	}
	return c.res.stateJSON()
}

// RestoreResilience implements crawl.ResilienceCarrier: it restores
// breaker, limiter and jitter-stream state from a checkpoint blob, so a
// resumed crawl rejoins a recovering API at the pace it left — an open
// breaker stays open for its remaining cooldown instead of herding.
// Restoring onto a client dialed without WithResilience is an error.
func (c *Client) RestoreResilience(raw json.RawMessage) error {
	if c.res == nil {
		return fmt.Errorf("netgraph: checkpoint carries resilience state but client has none configured (use WithResilience)")
	}
	return c.res.restoreJSON(raw)
}

// SetEventSink implements crawl.EventSource: it installs (or, with
// nil, removes) a live consumer for the resilience chain's retry,
// hedge and breaker events. The jobs manager points it at the running
// job's span timeline. A no-op without WithResilience.
func (c *Client) SetEventSink(fn func(kind, detail string)) {
	if c.res == nil {
		return
	}
	c.res.setEventSink(fn)
}

// Vertex returns the record for v, fetching it over the network on a
// cache miss. This is the error-returning access path; the panicking
// crawl.Source methods wrap it for samplers that cannot thread errors.
func (c *Client) Vertex(v int) (*VertexRecord, error) {
	var fl *inflightFetch
	for {
		c.mu.Lock()
		if rec := c.cache.get(v); rec != nil {
			c.cacheHits++
			c.mu.Unlock()
			return rec, nil
		}
		other, busy := c.inflight[v]
		if !busy {
			fl = &inflightFetch{done: make(chan struct{})}
			c.inflight[v] = fl
			c.mu.Unlock()
			break
		}
		// Another goroutine is already fetching v: wait for it instead of
		// issuing a duplicate round trip.
		c.mu.Unlock()
		<-other.done
		if other.rec != nil || other.err != nil {
			// Served by someone else's round trip: a hit for this caller.
			if other.rec != nil {
				c.mu.Lock()
				c.cacheHits++
				c.mu.Unlock()
			}
			return other.rec, other.err
		}
		// The flight was abandoned (capacity-capped prefetch): retry,
		// fetching it ourselves if nobody else picked it up.
	}

	rec, err := c.fetchOne(v)

	c.mu.Lock()
	delete(c.inflight, v)
	if err == nil {
		c.cache.add(v, rec)
		c.fetches++
	}
	c.roundtrips++
	c.cacheMisses++
	c.mu.Unlock()

	fl.rec, fl.err = rec, err
	close(fl.done)
	return rec, err
}

// get performs a context-bound GET of the given path.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	setTraceHeader(req)
	return c.hc.Do(req)
}

// post performs a context-bound JSON POST of the given path.
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	setTraceHeader(req)
	return c.hc.Do(req)
}

// setTraceHeader stamps the request with the trace ID its context
// carries, if any, so a trace minted by a CLI or server follows the
// request across the wire.
func setTraceHeader(req *http.Request) {
	if id := obs.TraceID(req.Context()); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
}

// fetchOne performs the single-vertex GET.
func (c *Client) fetchOne(v int) (*VertexRecord, error) {
	rec, err := call[VertexRecord](c.ctx, c, fmt.Sprintf("vertex %d", v),
		http.MethodGet, c.gpath(fmt.Sprintf("/v1/vertex/%d", v)), nil)
	if err != nil {
		return nil, err
	}
	return &rec, nil
}

// PrefetchVertices implements crawl.BatchSource: it fetches every
// not-yet-cached id in batched POST /v1/vertices round trips, warming
// the cache so subsequent Source queries are hits. Duplicate, cached,
// already-inflight and out-of-range ids are skipped. Concurrent
// single-vertex fetches of the same ids wait for the batch rather than
// double-fetching.
func (c *Client) PrefetchVertices(ids []int) error {
	c.mu.Lock()
	need := make([]int, 0, len(ids))
	flights := make(map[int]*inflightFetch, len(ids))
	cachedSeen := make(map[int]bool)
	for _, v := range ids {
		if v < 0 || v >= c.meta.NumVertices {
			continue // advice only: drop ids the server would 404
		}
		if _, dup := flights[v]; dup {
			continue
		}
		if c.cache.get(v) != nil {
			cachedSeen[v] = true
			continue
		}
		if _, busy := c.inflight[v]; busy {
			continue // someone else is on it; advice, not obligation
		}
		fl := &inflightFetch{done: make(chan struct{})}
		c.inflight[v] = fl
		flights[v] = fl
		need = append(need, v)
	}
	// Budget the fetch so this advice set never evicts itself: the cache
	// can retain at most cap records, and cachedSeen of them are members
	// of this very set (e.g. the frontier positions a sampler listed
	// ahead of their neighborhoods). Fetching past the budget would evict
	// those — or records fetched moments earlier in this call — burning
	// round trips on data that cannot be retained. The dropped ids stay
	// fetchable one by one, per the BatchSource contract.
	if c.cache.cap > 0 {
		budget := c.cache.cap - len(cachedSeen)
		if budget < 0 {
			budget = 0
		}
		if len(need) > budget {
			c.abandonFlights(flights, need[budget:])
			need = need[:budget]
		}
	}
	c.mu.Unlock()

	for start := 0; start < len(need); start += c.batchSize {
		end := start + c.batchSize
		if end > len(need) {
			end = len(need)
		}
		chunk := need[start:end]
		recs, err := c.fetchBatch(chunk)

		c.mu.Lock()
		c.roundtrips++
		if err != nil {
			// Advice, not obligation: don't burn the remaining chunks
			// against a server that is already failing. Abandoned waiters
			// fall back to per-vertex fetches.
			c.abandonFlights(flights, need[start:])
			c.mu.Unlock()
			return err
		}
		for _, v := range chunk {
			fl := flights[v]
			delete(c.inflight, v)
			fl.rec = recs[v]
			c.cache.add(v, recs[v])
			c.fetches++
			close(fl.done)
		}
		c.mu.Unlock()
	}
	return nil
}

// abandonFlights releases the given prefetch flights without a result;
// waiters observe rec == nil, err == nil and retry with their own
// single-vertex fetch. Callers must hold the client mutex.
func (c *Client) abandonFlights(flights map[int]*inflightFetch, ids []int) {
	for _, v := range ids {
		fl := flights[v]
		delete(c.inflight, v)
		close(fl.done)
	}
}

// fetchBatch performs one POST /v1/vertices round trip and returns the
// records keyed by id.
func (c *Client) fetchBatch(ids []int) (map[int]*VertexRecord, error) {
	// Batch fetches are read-only and idempotent, so they are marked
	// hedge-eligible: under WithResilience(HedgeDelay > 0) a straggling
	// batch gets a second chance instead of stalling the whole frontier.
	br, err := call[BatchResponse](MarkHedgeable(c.ctx), c, fmt.Sprintf("batch of %d", len(ids)),
		http.MethodPost, c.gpath("/v1/vertices"), BatchRequest{IDs: ids})
	if err != nil {
		return nil, err
	}
	recs := make(map[int]*VertexRecord, len(br.Vertices))
	for i := range br.Vertices {
		// Copy out of the decoded slice: a pointer into br.Vertices would
		// keep the whole batch's backing array reachable for as long as
		// any one record stays cached, unbounding the LRU's byte size.
		rec := br.Vertices[i]
		recs[rec.ID] = &rec
	}
	for _, v := range ids {
		if recs[v] == nil {
			return nil, fmt.Errorf("netgraph: batch response missing vertex %d", v)
		}
	}
	return recs, nil
}

// vertex is the panicking variant of Vertex backing the crawl.Source
// methods, whose interface has no error returns because in-memory
// sources cannot fail. RunSafely converts the panic back to an error.
func (c *Client) vertex(v int) *VertexRecord {
	rec, err := c.Vertex(v)
	if err != nil {
		panic(remoteError{err})
	}
	return rec
}

// remoteError wraps network failures carried through panics inside
// RunSafely.
type remoteError struct{ err error }

// RunSafely invokes fn, converting any network failure raised by the
// client's query methods into an error. Wrap sampler runs with it:
//
//	err := client.RunSafely(func() error { return sampler.Run(sess, emit) })
func (c *Client) RunSafely(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(remoteError); ok {
				err = re.err
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// NumVertices implements crawl.Source.
func (c *Client) NumVertices() int { return c.meta.NumVertices }

// SymDegree implements crawl.Source.
func (c *Client) SymDegree(v int) int { return c.vertex(v).SymDegree }

// SymNeighbor implements crawl.Source.
func (c *Client) SymNeighbor(v, i int) int { return int(c.vertex(v).SymNeighbors[i]) }

// InDegree implements estimate.View.
func (c *Client) InDegree(v int) int { return c.vertex(v).InDegree }

// OutDegree implements estimate.View.
func (c *Client) OutDegree(v int) int { return c.vertex(v).OutDegree }

// HasDirectedEdge implements estimate.EdgeView using u's out-adjacency.
func (c *Client) HasDirectedEdge(u, v int) bool {
	adj := c.vertex(u).OutNeighbors
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	return i < len(adj) && adj[i] == int32(v)
}

// SharedNeighbors implements estimate.EdgeView by intersecting the two
// sorted symmetric adjacency lists.
func (c *Client) SharedNeighbors(u, v int) int {
	a, b := c.vertex(u).SymNeighbors, c.vertex(v).SymNeighbors
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Groups returns the group labels of v (nil when the server has none).
// Together with NumGroups it implements live.GroupSource, so the
// group-density live estimator runs against a remote graph.
func (c *Client) Groups(v int) []int32 { return c.vertex(v).Groups }

// NumGroups implements live.GroupSource from the dialed metadata.
func (c *Client) NumGroups() int { return c.meta.NumGroups }

// GroupLabelsSnapshot reconstructs group labels for all vertices by
// querying each one (batched). Intended for small graphs and tests; a
// real crawl estimates group densities from samples instead.
func (c *Client) GroupLabelsSnapshot() (*graph.GroupLabels, error) {
	n := c.meta.NumVertices
	// Prefetch and consume in cache-sized windows: prefetching all n ids
	// up front would evict the early ones before the read loop reached
	// them whenever n exceeds the cache capacity, fetching the graph
	// nearly twice.
	window := c.batchSize
	if cp := c.CacheCapacity(); cp > 0 && cp < window {
		window = cp
	}
	membership := make([][]int32, n)
	ids := make([]int, 0, window)
	for start := 0; start < n; start += window {
		end := start + window
		if end > n {
			end = n
		}
		ids = ids[:0]
		for v := start; v < end; v++ {
			ids = append(ids, v)
		}
		if err := c.PrefetchVertices(ids); err != nil {
			return nil, err
		}
		for v := start; v < end; v++ {
			rec, err := c.Vertex(v)
			if err != nil {
				return nil, err
			}
			membership[v] = rec.Groups
		}
	}
	return graph.NewGroupLabels(c.meta.NumGroups, membership), nil
}

// SubmitJob submits a sampling job to the server's job service
// (POST /v1/jobs) and returns its initial status. A spec without a
// Graph name inherits the client's WithGraph target, so a client dialed
// against one hosted graph submits jobs against that same graph.
func (c *Client) SubmitJob(ctx context.Context, spec jobs.Spec) (jobs.Status, error) {
	if spec.Graph == "" {
		spec.Graph = c.graph
	}
	return call[jobs.Status](ctx, c, "job submit", http.MethodPost, "/v1/jobs", spec)
}

// Job returns the status (including partial estimates) of a job
// (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (jobs.Status, error) {
	return call[jobs.Status](ctx, c, "job "+id, http.MethodGet, "/v1/jobs/"+id, nil)
}

// JobEstimates fetches a job's latest live estimation report
// (GET /v1/jobs/{id}/estimates): current estimate, confidence interval,
// mixing diagnostics and stop-rule verdict. It errors while the job has
// not yet published a report (the server answers 404).
func (c *Client) JobEstimates(ctx context.Context, id string) (live.Report, error) {
	return call[live.Report](ctx, c, "job estimates "+id, http.MethodGet, "/v1/jobs/"+id+"/estimates", nil)
}

// JobTrace fetches a job's span timeline (GET /v1/jobs/{id}/trace):
// the queued→running→checkpoint→terminal lifecycle events plus any
// crawl-level retry/hedge/breaker events the job's source emitted.
func (c *Client) JobTrace(ctx context.Context, id string) (jobs.Trace, error) {
	return call[jobs.Trace](ctx, c, "job trace "+id, http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
}

// CancelJob cancels a job (POST /v1/jobs/{id}/cancel) and returns its
// status after the cancel was recorded.
func (c *Client) CancelJob(ctx context.Context, id string) (jobs.Status, error) {
	return call[jobs.Status](ctx, c, "job cancel "+id, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil)
}

// WaitJob waits for a job to reach a terminal state (or ctx to end) and
// returns its final status. It prefers the server's SSE event stream
// (GET /v1/jobs/{id}/events) — one long-lived connection instead of a
// poll per interval — and falls back to polling every poll (<= 0 means
// the WithPollInterval setting, default DefaultPollInterval) against
// servers without the stream.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (jobs.Status, error) {
	if st, err := c.FollowJob(ctx, id, nil); err == nil {
		return st, nil
	} else if ctx.Err() != nil {
		return st, err
	}
	// The stream failed for a reason other than our own cancellation
	// (old server, proxy buffering, mid-stream disconnect): poll.
	return c.PollJob(ctx, id, poll)
}

// PollJob is the polling half of WaitJob: it re-fetches the job's
// status every poll interval (<= 0 means the WithPollInterval setting)
// until a terminal state. Callers that already know SSE is unavailable
// — e.g. after their own FollowJob attempt failed — use it directly to
// avoid WaitJob's redundant second stream attempt.
func (c *Client) PollJob(ctx context.Context, id string, poll time.Duration) (jobs.Status, error) {
	return pollUntil(ctx, c, poll, func() (jobs.Status, error) { return c.Job(ctx, id) }, jobDone)
}

// FollowJob subscribes to a job's SSE progress stream
// (GET /v1/jobs/{id}/events), invoking fn (which may be nil) for every
// status event — state transitions and step-boundary checkpoints, each
// carrying budget spent, edges sampled and the current partial
// estimate — and returns the terminal status. The error is non-nil when
// the stream could not be opened or broke before a terminal event;
// callers wanting the polling fallback use WaitJob.
func (c *Client) FollowJob(ctx context.Context, id string, fn func(jobs.Status)) (jobs.Status, error) {
	return follow(ctx, c, "job events "+id, "/v1/jobs/"+id+"/events", jobDone, fn,
		frames{"estimate": decodeFrame[live.Report](nil)})
}

// FollowEstimates subscribes to the same SSE stream but dispatches the
// "estimate" frames: fn (which may be nil) receives every observed live
// estimation report — estimate, confidence interval, diagnostics,
// stop-rule verdict — and the call returns the job's terminal status.
// Intermediate reports may coalesce under load; the last one observed
// is always the job's final report.
func (c *Client) FollowEstimates(ctx context.Context, id string, fn func(live.Report)) (jobs.Status, error) {
	return follow(ctx, c, "job events "+id, "/v1/jobs/"+id+"/events", jobDone, nil,
		frames{"estimate": decodeFrame(fn)})
}

// Health fetches the server's liveness summary (GET /healthz).
func (c *Client) Health(ctx context.Context) (Health, error) {
	return call[Health](ctx, c, "health", http.MethodGet, "/healthz", nil)
}

// lruCache is a capacity-bounded least-recently-used vertex cache.
// Callers must hold the client mutex.
type lruCache struct {
	cap   int // <= 0 means unbounded
	ll    *list.List
	items map[int]*list.Element
}

type lruEntry struct {
	key int
	rec *VertexRecord
}

func newLRUCache(capacity int) lruCache {
	return lruCache{cap: capacity, ll: list.New(), items: make(map[int]*list.Element)}
}

func (l *lruCache) len() int { return len(l.items) }

// get returns the cached record for key (nil on miss) and marks it most
// recently used.
func (l *lruCache) get(key int) *VertexRecord {
	el, ok := l.items[key]
	if !ok {
		return nil
	}
	l.ll.MoveToFront(el)
	return el.Value.(lruEntry).rec
}

// add inserts (or refreshes) key, evicting the least recently used entry
// when over capacity.
func (l *lruCache) add(key int, rec *VertexRecord) {
	if el, ok := l.items[key]; ok {
		el.Value = lruEntry{key: key, rec: rec}
		l.ll.MoveToFront(el)
		return
	}
	l.items[key] = l.ll.PushFront(lruEntry{key: key, rec: rec})
	if l.cap > 0 && len(l.items) > l.cap {
		back := l.ll.Back()
		l.ll.Remove(back)
		delete(l.items, back.Value.(lruEntry).key)
	}
}
