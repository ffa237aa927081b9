package netgraph

// Resilience layers for the netgraph client: http.RoundTripper
// wrappers that make a crawl survive a real OSN API — retry with
// exponential backoff and jitter, a circuit breaker, per-host
// token-bucket rate limiting, request hedging for tail latency, and
// per-attempt deadlines. WithResilience builds them from one
// ResilienceConfig in a fixed order (outermost to innermost):
//
//	retry → breaker → limiter → hedge → attempt timeout → transport
//
// Retry sits outermost so one logical query retries through the breaker
// and limiter (a retry is a fresh admission decision, and an open
// breaker fails retries instantly without network cost). Hedge sits
// below the limiter so a hedged pair still spends limiter tokens as one
// admission, and above the attempt timeout so each hedge leg gets its
// own deadline.
//
// All time-dependent behavior (backoff waits, breaker cooldowns,
// limiter refill, hedge delays) flows through the Clock interface so
// tests drive it with a fake clock — no wall-clock sleeps. The one
// exception is the attempt timeout, which arms a real context deadline
// on the request.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"frontier/internal/xrand"
)

// Clock abstracts time for the resilience layers so tests can drive
// backoff schedules, breaker cooldowns and limiter refill with a fake
// clock instead of wall-clock sleeps.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that receives once, after d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock, backed by the time package.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

// RoundTrip implements http.RoundTripper.
func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// retryable reports whether a round-trip outcome is worth retrying:
// any transport error (the response never arrived — includes dropped
// connections and per-attempt deadline expiry), or a status in the
// retryable set {408, 429, 500, 502, 503, 504}. Client errors like 404
// are permanent and never retried.
func retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	if resp == nil {
		return false
	}
	switch resp.StatusCode {
	case http.StatusRequestTimeout, // 408
		http.StatusTooManyRequests,     // 429
		http.StatusInternalServerError, // 500
		http.StatusBadGateway,          // 502
		http.StatusServiceUnavailable,  // 503
		http.StatusGatewayTimeout:      // 504
		return true
	}
	return false
}

// backoffDelay computes the wait before the retry that follows failed
// attempt number `attempt` (1-based): base doubled per prior attempt,
// capped at max, then scaled by a jitter factor in [1-jitter, 1] drawn
// from u ∈ [0,1). Pure, so schedules are table-testable.
func backoffDelay(attempt int, base, max time.Duration, jitter, u float64) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		d = time.Duration(float64(d) * (1 - jitter + jitter*u))
	}
	return d
}

// parseRetryAfter parses the delay-seconds form of a Retry-After header
// value; the HTTP-date form and anything malformed parse as 0 (backoff
// alone governs the wait).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryCause names a failed outcome for a "retry" event: the status
// code as digits, or "transport" when no response arrived.
func retryCause(resp *http.Response, err error) string {
	if err != nil {
		return "transport"
	}
	return strconv.Itoa(resp.StatusCode)
}

// drainBody consumes at most 4KiB of a failed response's body and
// closes it, so the retried attempt can reuse the connection.
func drainBody(resp *http.Response) {
	if resp == nil || resp.Body == nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
	resp.Body.Close()
}

// rewindRequest clones req for a fresh attempt, replaying the body via
// GetBody when the request has one.
func rewindRequest(req *http.Request) (*http.Request, error) {
	r := req.Clone(req.Context())
	if req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		r.Body = body
	}
	return r, nil
}

// retry wraps next in the retry layer: retryable outcomes are retried
// with exponential backoff plus jitter, honoring Retry-After
// (delay-seconds form, still capped at RetryMax). Requests with a body
// are only retried when GetBody is set (true for every request this
// client issues); a request whose context ends is never retried past
// that.
func (r *resilience) retry(next http.RoundTripper) http.RoundTripper {
	cfg := r.cfg
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		for attempt := 1; ; attempt++ {
			areq := req
			if attempt > 1 {
				var err error
				if areq, err = rewindRequest(req); err != nil {
					return nil, err
				}
			}
			resp, err := next.RoundTrip(areq)
			if req.Context().Err() != nil {
				// The caller is gone; whatever happened, don't retry.
				return resp, err
			}
			if !retryable(resp, err) || attempt >= cfg.MaxAttempts {
				return resp, err
			}
			if req.Body != nil && req.GetBody == nil {
				return resp, err // body cannot be replayed
			}
			var retryAfter time.Duration
			if resp != nil {
				retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
				drainBody(resp)
			}
			d := backoffDelay(attempt, cfg.RetryBase, cfg.RetryMax, cfg.Jitter, r.draw())
			if retryAfter > d {
				d = retryAfter
			}
			if d > cfg.RetryMax {
				d = cfg.RetryMax
			}
			r.retries.Add(1)
			r.emit("retry", retryCause(resp, err))
			select {
			case <-req.Context().Done():
				return nil, req.Context().Err()
			case <-cfg.Clock.After(d):
			}
		}
	})
}

// bucket is one host's token-bucket state.
type bucket struct {
	tokens float64   // may go negative: a reservation borrows ahead
	last   time.Time // last refill instant
}

// limiter is a per-host token bucket: admission costs one token, tokens
// refill at rate per second up to burst, and a caller that finds the
// bucket empty borrows (tokens go negative) and waits out the deficit —
// which serializes concurrent waiters fairly without extra bookkeeping.
type limiter struct {
	rate  float64
	burst float64
	clock Clock

	mu      sync.Mutex
	buckets map[string]*bucket
}

// newLimiter returns a limiter admitting rate requests per second per
// host with the given burst (values < 1 are raised to 1).
func newLimiter(rate float64, burst int, clock Clock) *limiter {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &limiter{rate: rate, burst: b, clock: clock, buckets: make(map[string]*bucket)}
}

// reserve books one admission for host and returns how long the caller
// must wait before proceeding (0 = immediately).
func (l *limiter) reserve(host string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clock.Now()
	b := l.buckets[host]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[host] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	b.tokens--
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / l.rate * float64(time.Second))
}

// snapshot returns each host's token balance with refill applied up to
// now. Balances round-trip through checkpoints so a resumed crawl
// rejoins the rate limit where it left off instead of arriving with a
// full burst.
func (l *limiter) snapshot() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buckets) == 0 {
		return nil
	}
	now := l.clock.Now()
	out := make(map[string]float64, len(l.buckets))
	for host, b := range l.buckets {
		t := b.tokens + now.Sub(b.last).Seconds()*l.rate
		if t > l.burst {
			t = l.burst
		}
		out[host] = t
	}
	return out
}

// restore replaces the limiter's balances with a snapshot, anchored at
// the current clock instant.
func (l *limiter) restore(balances map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clock.Now()
	l.buckets = make(map[string]*bucket, len(balances))
	for host, t := range balances {
		if t > l.burst {
			t = l.burst
		}
		l.buckets[host] = &bucket{tokens: t, last: now}
	}
}

// wrap wraps next in the admission layer backed by this limiter: each
// request waits out its host's deficit before forwarding.
func (l *limiter) wrap(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if d := l.reserve(req.URL.Host); d > 0 {
			select {
			case <-req.Context().Done():
				return nil, req.Context().Err()
			case <-l.clock.After(d):
			}
		}
		return next.RoundTrip(req)
	})
}

// BreakerState names a circuit-breaker state.
type BreakerState string

// Circuit-breaker states: closed admits everything, open rejects
// everything until the cooldown elapses, half-open admits exactly one
// probe whose outcome decides between closing and re-opening.
const (
	BreakerClosed   BreakerState = "closed"
	BreakerOpen     BreakerState = "open"
	BreakerHalfOpen BreakerState = "half-open"
)

// ErrCircuitOpen is returned (wrapped) when the circuit breaker rejects
// a request without sending it: the breaker is open and cooling down,
// or half-open with its single probe already in flight.
var ErrCircuitOpen = errors.New("netgraph: circuit breaker open")

// breaker is a circuit breaker over consecutive failures. It trips open
// after threshold consecutive failures, rejects everything for
// cooldown, then admits a single half-open probe whose outcome decides
// between closing and re-opening.
type breaker struct {
	threshold int
	cooldown  time.Duration
	clock     Clock
	onChange  func(from, to BreakerState) // set before first use; fired outside mu

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	until    time.Time // when an open breaker may half-open
	probing  bool      // the half-open probe is in flight
}

// newBreaker returns a closed breaker tripping after threshold
// consecutive failures with the given cooldown.
func newBreaker(threshold int, cooldown time.Duration, clock Clock) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, clock: clock, state: BreakerClosed}
}

// allow decides admission, transitioning open → half-open when the
// cooldown has elapsed. It returns nil to admit or an error wrapping
// ErrCircuitOpen to reject.
func (b *breaker) allow() error {
	b.mu.Lock()
	from := b.state
	err := b.allowLocked()
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
	return err
}

// allowLocked is allow's state machine; the caller holds b.mu.
func (b *breaker) allowLocked() error {
	switch b.state {
	case BreakerOpen:
		remaining := b.until.Sub(b.clock.Now())
		if remaining > 0 {
			return fmt.Errorf("%w (retry in %s)", ErrCircuitOpen, remaining)
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return nil
	case BreakerHalfOpen:
		if b.probing {
			return fmt.Errorf("%w (half-open probe in flight)", ErrCircuitOpen)
		}
		b.probing = true
		return nil
	default:
		return nil
	}
}

// notify fires the state-change hook for a transition observed outside
// the lock; no-op when the state did not change or no hook is set.
func (b *breaker) notify(from, to BreakerState) {
	if from != to && b.onChange != nil {
		b.onChange(from, to)
	}
}

// record feeds an admitted request's outcome back into the state
// machine. Outcomes of requests admitted before a trip are ignored once
// the breaker is open.
func (b *breaker) record(ok bool) {
	b.mu.Lock()
	from := b.state
	b.recordLocked(ok)
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
}

// recordLocked is record's state machine; the caller holds b.mu.
func (b *breaker) recordLocked(ok bool) {
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.state = BreakerClosed
			b.failures = 0
		} else {
			b.state = BreakerOpen
			b.until = b.clock.Now().Add(b.cooldown)
		}
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.failures = 0
			b.until = b.clock.Now().Add(b.cooldown)
		}
	}
}

// currentState returns the breaker's state, surfacing open → half-open
// expiry without waiting for the next request.
func (b *breaker) currentState() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && !b.clock.Now().Before(b.until) {
		return BreakerHalfOpen
	}
	return b.state
}

// breakerSnapshot is the serialized breaker state inside a resilience
// checkpoint. The cooldown is stored as *remaining* duration so a
// restore re-anchors it at resume time: a job resumed mid-cooldown
// stays backed off instead of herding onto a recovering API.
type breakerSnapshot struct {
	// State is the breaker state at capture time.
	State BreakerState `json:"state"`
	// Failures is the consecutive-failure count (closed state only).
	Failures int `json:"failures,omitempty"`
	// RemainingNS is the unexpired cooldown at capture (open state only).
	RemainingNS int64 `json:"remaining_ns,omitempty"`
}

// snapshot captures the breaker state. An in-flight half-open probe
// does not serialize: the resumed breaker will admit a fresh probe.
func (b *breaker) snapshot() breakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := breakerSnapshot{State: b.state, Failures: b.failures}
	if b.state == BreakerOpen {
		if remaining := b.until.Sub(b.clock.Now()); remaining > 0 {
			s.RemainingNS = int64(remaining)
		}
	}
	return s
}

// restoreSnapshot replaces the breaker state with a snapshot, anchoring
// any remaining cooldown at the current clock instant.
func (b *breaker) restoreSnapshot(s breakerSnapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch s.State {
	case BreakerOpen, BreakerHalfOpen, BreakerClosed:
		b.state = s.State
	default:
		b.state = BreakerClosed
	}
	b.failures = s.Failures
	b.probing = false
	b.until = time.Time{}
	if b.state == BreakerOpen {
		b.until = b.clock.Now().Add(time.Duration(s.RemainingNS))
	}
}

// wrap wraps next in the admission layer backed by this breaker.
// Outcomes are classified with retryable: a retryable outcome is a
// failure (server fault), anything else — including a 404 — counts as
// the API being healthy.
func (b *breaker) wrap(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if err := b.allow(); err != nil {
			return nil, err
		}
		resp, err := next.RoundTrip(req)
		b.record(!retryable(resp, err))
		return resp, err
	})
}

// hedgeKey marks a request context as hedge-eligible.
type hedgeKey struct{}

// MarkHedgeable returns a context that marks requests carrying it as
// safe to hedge: the operation is idempotent, so issuing it twice and
// keeping the first response is harmless. The client marks its batch
// vertex fetches; GETs are hedge-eligible without marking.
func MarkHedgeable(ctx context.Context) context.Context {
	return context.WithValue(ctx, hedgeKey{}, true)
}

// hedgeEligible reports whether a request may be hedged: idempotent
// (GET, or context-marked via MarkHedgeable) and replayable.
func hedgeEligible(req *http.Request) bool {
	if req.Body != nil && req.GetBody == nil {
		return false
	}
	if req.Method == http.MethodGet {
		return true
	}
	marked, _ := req.Context().Value(hedgeKey{}).(bool)
	return marked
}

// legResult is one hedge leg's outcome.
type legResult struct {
	resp   *http.Response
	err    error
	cancel context.CancelFunc
	id     int // index into the launch order, so the winner's context survives
}

// cancelOnClose releases a hedge leg's (or timed attempt's) context
// only once the response body has been consumed — cancelling earlier
// would kill the body mid-read.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

// Close closes the body, then cancels the leg's context.
func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// reapLegs drains and discards n late hedge-leg results so their bodies
// and contexts are released.
func reapLegs(results <-chan legResult, n int) {
	for i := 0; i < n; i++ {
		res := <-results
		if res.resp != nil {
			drainBody(res.resp)
		}
		res.cancel()
	}
}

// hedge wraps next in the hedging layer: if the first attempt of an
// eligible request has not resolved after HedgeDelay, a second
// identical attempt is launched and the first err == nil response
// wins; the loser is cancelled. Fault statuses (a 503 is a response,
// not a timeout) win too — classifying them is the retry layer's job.
func (r *resilience) hedge(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return r.hedgeRoundTrip(next, req)
	})
}

// hedgeRoundTrip runs one possibly-hedged request.
func (r *resilience) hedgeRoundTrip(next http.RoundTripper, req *http.Request) (*http.Response, error) {
	if !hedgeEligible(req) {
		return next.RoundTrip(req)
	}
	results := make(chan legResult, 2)
	var cancels []context.CancelFunc // per-leg, indexed by legResult.id
	launch := func() {
		lctx, cancel := context.WithCancel(req.Context())
		id := len(cancels)
		cancels = append(cancels, cancel)
		lreq := req.Clone(lctx)
		if req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				cancel()
				results <- legResult{nil, err, func() {}, id}
				return
			}
			lreq.Body = body
		}
		go func() {
			resp, err := next.RoundTrip(lreq)
			results <- legResult{resp, err, cancel, id}
		}()
	}
	launch()
	outstanding := 1
	timerC := r.cfg.Clock.After(r.cfg.HedgeDelay)
	var lastErr error
	for {
		select {
		case <-timerC:
			timerC = nil
			launch()
			outstanding++
			r.hedges.Add(1)
			r.emit("hedge", "")
		case res := <-results:
			outstanding--
			if res.err == nil {
				// Cancel the losing legs right away — the point of
				// hedging is to stop waiting on the slow attempt, not
				// just to race it — then reap their results so bodies
				// and contexts are released.
				for i, cancel := range cancels {
					if i != res.id {
						cancel()
					}
				}
				if outstanding > 0 {
					go reapLegs(results, outstanding)
				}
				res.resp.Body = &cancelOnClose{ReadCloser: res.resp.Body, cancel: res.cancel}
				return res.resp, nil
			}
			res.cancel()
			lastErr = res.err
			if outstanding == 0 {
				// Every launched leg failed. If the hedge never launched
				// (first leg failed fast), fail fast too: backoff policy
				// belongs to the retry layer above, not here.
				return nil, lastErr
			}
		}
	}
}

// attemptTimeout wraps next so each individual attempt gets its own
// deadline d, and one hung round trip cannot stall a crawl — the
// attempt fails, and the retry layer above replays it. Unlike backoff
// and cooldown waits, the deadline is real wall-clock time (a context
// deadline), not driven by the injected Clock.
func attemptTimeout(next http.RoundTripper, d time.Duration) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ctx, cancel := context.WithTimeout(req.Context(), d)
		resp, err := next.RoundTrip(req.Clone(ctx))
		if err != nil {
			cancel()
			return nil, err
		}
		resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
		return resp, nil
	})
}

// ResilienceConfig configures the client's resilience layers (see
// WithResilience). The zero value of each knob disables or
// defaults that layer as documented per field; the zero config still
// enables retries with defaults.
type ResilienceConfig struct {
	// MaxAttempts is the total number of attempts per logical request,
	// including the first (0 = default 4; 1 disables retries).
	MaxAttempts int
	// RetryBase is the backoff before the first retry (0 = 50ms).
	RetryBase time.Duration
	// RetryMax caps every backoff, Retry-After included (0 = 5s).
	RetryMax time.Duration
	// Jitter in [0,1] scales each backoff by a uniform factor in
	// [1-Jitter, 1] (0 = default 0.5; negative disables).
	Jitter float64
	// Seed seeds the jitter stream; the stream's state rides resilience
	// checkpoints, so a resumed crawl replays the same schedule.
	Seed uint64
	// RateLimit admits at most this many requests per second per host
	// (0 disables the limiter).
	RateLimit float64
	// RateBurst is the limiter's burst size (values < 1 become 1).
	RateBurst int
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive failures (0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects before
	// admitting a half-open probe (0 = 1s when the breaker is enabled).
	BreakerCooldown time.Duration
	// HedgeDelay launches a second attempt for idempotent requests
	// still unresolved after this long (0 disables hedging).
	HedgeDelay time.Duration
	// AttemptTimeout bounds each individual attempt with a real
	// context deadline (0 disables; not governed by Clock).
	AttemptTimeout time.Duration
	// Clock drives backoff, cooldown, refill and hedge timing; tests
	// inject a fake (nil = system clock).
	Clock Clock
	// OnEvent, when non-nil, observes every resilience event: kind is
	// "retry" (detail: the retry cause), "hedge" (detail empty) or
	// "breaker" (detail: the new state). It is called from request
	// goroutines and must be cheap and non-blocking. The jobs manager
	// additionally installs a per-job sink via the crawl.EventSource
	// facet to route these into the job's span timeline.
	OnEvent func(kind, detail string)
}

// resilience owns the assembled chain's shared state: the config with
// its defaults filled in, the breaker, the limiter, the snapshot-able
// jitter stream, and the retry/hedge counters a crawl session charges
// to its budget.
type resilience struct {
	cfg ResilienceConfig

	retries atomic.Int64 // total retry attempts (each one cost a round trip)
	taken   atomic.Int64 // retries already handed to a session via TakeRetries
	hedges  atomic.Int64 // hedge legs launched

	breaker *breaker // nil when disabled
	limiter *limiter // nil when disabled

	sink atomic.Value // eventSink installed via setEventSink

	rngMu sync.Mutex
	rng   *xrand.Rand // jitter stream; state rides checkpoints
}

// eventSink is the installable resilience-event callback type; a named
// type so atomic.Value always stores one concrete type.
type eventSink func(kind, detail string)

// emit fires an event at the config hook and the installed sink.
func (r *resilience) emit(kind, detail string) {
	if r.cfg.OnEvent != nil {
		r.cfg.OnEvent(kind, detail)
	}
	if fn, _ := r.sink.Load().(eventSink); fn != nil {
		fn(kind, detail)
	}
}

// setEventSink installs (or, with nil, removes) the dynamic event sink.
func (r *resilience) setEventSink(fn func(kind, detail string)) {
	r.sink.Store(eventSink(fn))
}

// newResilience fills cfg's zero fields with their documented defaults
// and builds the shared state.
func newResilience(cfg ResilienceConfig) *resilience {
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 5 * time.Second
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.5
	} else if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	r := &resilience{cfg: cfg, rng: xrand.New(cfg.Seed)}
	if cfg.BreakerThreshold > 0 {
		r.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock)
		r.breaker.onChange = func(_, to BreakerState) { r.emit("breaker", string(to)) }
	}
	if cfg.RateLimit > 0 {
		r.limiter = newLimiter(cfg.RateLimit, cfg.RateBurst, cfg.Clock)
	}
	return r
}

// draw pulls one uniform variate from the shared jitter stream.
func (r *resilience) draw() float64 {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.rng.Float64()
}

// wrap assembles the enabled layers around a base transport, innermost
// first, so the request path runs retry → breaker → limiter → hedge →
// attempt timeout → base.
func (r *resilience) wrap(base http.RoundTripper) http.RoundTripper {
	rt := base
	if r.cfg.AttemptTimeout > 0 {
		rt = attemptTimeout(rt, r.cfg.AttemptTimeout)
	}
	if r.cfg.HedgeDelay > 0 {
		rt = r.hedge(rt)
	}
	if r.limiter != nil {
		rt = r.limiter.wrap(rt)
	}
	if r.breaker != nil {
		rt = r.breaker.wrap(rt)
	}
	if r.cfg.MaxAttempts != 1 {
		rt = r.retry(rt)
	}
	return rt
}

// takeRetries returns the retries accumulated since the last take.
func (r *resilience) takeRetries() int64 {
	cur := r.retries.Load()
	prev := r.taken.Swap(cur)
	return cur - prev
}

// breakerState returns the breaker's current state name, or "" when the
// breaker is disabled.
func (r *resilience) breakerState() string {
	if r.breaker == nil {
		return ""
	}
	return string(r.breaker.currentState())
}

// resilienceState is the JSON shape of a resilience checkpoint: the
// breaker state machine, the limiter's per-host token balances, and the
// jitter stream — everything a resumed crawl needs to rejoin a
// recovering API politely.
type resilienceState struct {
	// Breaker is the breaker snapshot (omitted when disabled).
	Breaker *breakerSnapshot `json:"breaker,omitempty"`
	// Limiter maps host → token balance (omitted when disabled/unused).
	Limiter map[string]float64 `json:"limiter,omitempty"`
	// RetryRNG is the jitter stream's xoshiro state.
	RetryRNG [4]uint64 `json:"retry_rng"`
}

// stateJSON serializes the resilience state for a checkpoint.
func (r *resilience) stateJSON() (json.RawMessage, error) {
	st := resilienceState{}
	if r.breaker != nil {
		s := r.breaker.snapshot()
		st.Breaker = &s
	}
	if r.limiter != nil {
		st.Limiter = r.limiter.snapshot()
	}
	r.rngMu.Lock()
	st.RetryRNG = r.rng.State()
	r.rngMu.Unlock()
	return json.Marshal(st)
}

// restoreJSON restores breaker, limiter and jitter-stream state from a
// checkpoint blob.
func (r *resilience) restoreJSON(raw json.RawMessage) error {
	var st resilienceState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("netgraph: decoding resilience state: %w", err)
	}
	if st.Breaker != nil {
		if r.breaker == nil {
			return fmt.Errorf("netgraph: resilience state has breaker but breaker is disabled")
		}
		r.breaker.restoreSnapshot(*st.Breaker)
	}
	if st.Limiter != nil {
		if r.limiter == nil {
			return fmt.Errorf("netgraph: resilience state has limiter but limiter is disabled")
		}
		r.limiter.restore(st.Limiter)
	}
	r.rngMu.Lock()
	r.rng.Restore(st.RetryRNG)
	r.rngMu.Unlock()
	return nil
}

// WithResilience wraps the client's transport in the resilience layers
// (retry → breaker → limiter → hedge → attempt timeout, each enabled per
// cfg). The client's http.Client
// is shallow-copied, so the caller's client is untouched. Dial's
// metadata fetch already flows through the chain.
//
// The chain's mutable state — breaker, limiter balances, jitter
// stream — is exposed via ResilienceState/RestoreResilience, which
// crawl sessions capture into checkpoints so a resumed crawl does not
// thundering-herd a recovering API.
func WithResilience(cfg ResilienceConfig) Option {
	return func(c *Client) { c.resCfg = &cfg }
}
