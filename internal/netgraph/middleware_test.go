package netgraph

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock: Now is frozen until Advance,
// and After registers a waiter that fires only when Advance moves time
// past its deadline. The added channel signals every After registration
// so tests can synchronize with a goroutine about to block on a timer
// without polling or sleeping.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
	added   chan struct{}
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0), added: make(chan struct{}, 64)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	if d <= 0 {
		ch <- c.now
	} else {
		c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	}
	c.mu.Unlock()
	select {
	case c.added <- struct{}{}:
	default:
	}
	return ch
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// recordClock is a Clock whose After fires immediately while recording
// the requested duration and advancing its own notion of now by it —
// the retry loop runs at full speed and the test asserts on the exact
// backoff schedule it would have waited out.
type recordClock struct {
	mu    sync.Mutex
	now   time.Time
	waits []time.Duration
}

func newRecordClock() *recordClock { return &recordClock{now: time.Unix(1000, 0)} }

func (c *recordClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *recordClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waits = append(c.waits, d)
	c.now = c.now.Add(d)
	ch := make(chan time.Time, 1)
	ch <- c.now
	return ch
}

func (c *recordClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.waits...)
}

// layers builds the resilience layers cfg enables around a stub
// transport.
func layers(cfg ResilienceConfig, base roundTripFunc) http.RoundTripper {
	return newResilience(cfg).wrap(base)
}

// retryCauses returns an OnEvent hook that appends each retry's cause
// to *causes.
func retryCauses(causes *[]string) func(kind, detail string) {
	return func(kind, detail string) {
		if kind == "retry" {
			*causes = append(*causes, detail)
		}
	}
}

// stubResp builds a minimal response for stub transports.
func stubResp(code int) *http.Response {
	return &http.Response{
		StatusCode: code,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader("stub")),
	}
}

func TestBackoffDelayTable(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name    string
		attempt int
		base    time.Duration
		max     time.Duration
		jitter  float64
		u       float64
		want    time.Duration
	}{
		{"first retry", 1, 100 * ms, 5000 * ms, 0, 0, 100 * ms},
		{"doubles", 2, 100 * ms, 5000 * ms, 0, 0, 200 * ms},
		{"doubles again", 3, 100 * ms, 5000 * ms, 0, 0, 400 * ms},
		{"capped at max", 10, 100 * ms, 800 * ms, 0, 0, 800 * ms},
		{"jitter floor", 1, 100 * ms, 5000 * ms, 0.5, 0, 50 * ms},
		{"jitter mid", 1, 100 * ms, 5000 * ms, 0.5, 0.5, 75 * ms},
		{"full jitter floor", 2, 100 * ms, 5000 * ms, 1, 0, 0},
		{"zero base", 1, 0, 5000 * ms, 0.5, 0.9, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := backoffDelay(tc.attempt, tc.base, tc.max, tc.jitter, tc.u); got != tc.want {
				t.Fatalf("backoffDelay(%d, %v, %v, %v, %v) = %v, want %v",
					tc.attempt, tc.base, tc.max, tc.jitter, tc.u, got, tc.want)
			}
		})
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"3", 3 * time.Second},
		{"-1", 0},
		{"junk", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestDefaultRetryable(t *testing.T) {
	cases := []struct {
		name string
		resp *http.Response
		err  error
		want bool
	}{
		{"transport error", nil, errors.New("eof"), true},
		{"nil nil", nil, nil, false},
		{"200", stubResp(200), nil, false},
		{"404", stubResp(404), nil, false},
		{"408", stubResp(408), nil, true},
		{"429", stubResp(429), nil, true},
		{"500", stubResp(500), nil, true},
		{"502", stubResp(502), nil, true},
		{"503", stubResp(503), nil, true},
		{"504", stubResp(504), nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryable(tc.resp, tc.err); got != tc.want {
				t.Fatalf("retryable = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestRetryBackoffSchedule drives the retry layer over a recording
// clock: three 503s then success must wait out the exact exponential
// schedule, with a "retry" event naming each failed attempt's cause.
func TestRetryBackoffSchedule(t *testing.T) {
	rc := newRecordClock()
	var calls atomic.Int32
	var causes []string
	rt := layers(ResilienceConfig{
		MaxAttempts: 4,
		RetryBase:   100 * time.Millisecond,
		RetryMax:    time.Second,
		Jitter:      -1, // disabled: the schedule is the pure exponential
		Clock:       rc,
		OnEvent:     retryCauses(&causes),
	}, func(req *http.Request) (*http.Response, error) {
		if calls.Add(1) < 4 {
			return stubResp(503), nil
		}
		return stubResp(200), nil
	})
	req, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
	if calls.Load() != 4 {
		t.Fatalf("attempts = %d, want 4", calls.Load())
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	got := rc.recorded()
	if len(got) != len(want) {
		t.Fatalf("waits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v (schedule %v)", i, got[i], want[i], got)
		}
	}
	if len(causes) != 3 || causes[0] != "503" {
		t.Fatalf("causes = %v", causes)
	}
}

// TestRetryHonorsRetryAfter: a 429's Retry-After (delay-seconds)
// stretches the wait beyond the computed backoff but never past
// RetryMax.
func TestRetryHonorsRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxDelay time.Duration
		want     time.Duration
	}{
		{"stretches the wait", 5 * time.Second, 2 * time.Second},
		{"capped at MaxDelay", 500 * time.Millisecond, 500 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := newRecordClock()
			var calls atomic.Int32
			rt := layers(ResilienceConfig{
				MaxAttempts: 2,
				RetryBase:   10 * time.Millisecond,
				RetryMax:    tc.maxDelay,
				Jitter:      -1,
				Clock:       rc,
			}, func(req *http.Request) (*http.Response, error) {
				if calls.Add(1) == 1 {
					resp := stubResp(429)
					resp.Header.Set("Retry-After", "2")
					return resp, nil
				}
				return stubResp(200), nil
			})
			req, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
			resp, err := rt.RoundTrip(req)
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("resp=%v err=%v", resp, err)
			}
			resp.Body.Close()
			if got := rc.recorded(); len(got) != 1 || got[0] != tc.want {
				t.Fatalf("waits = %v, want [%v]", got, tc.want)
			}
		})
	}
}

// TestRetryGivesUp: after MaxAttempts the last failure is returned
// as-is.
func TestRetryGivesUp(t *testing.T) {
	rc := newRecordClock()
	var calls atomic.Int32
	rt := layers(ResilienceConfig{MaxAttempts: 3, RetryBase: time.Millisecond, Jitter: -1, Clock: rc},
		func(req *http.Request) (*http.Response, error) {
			calls.Add(1)
			return stubResp(503), nil
		})
	req, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
}

// TestRetryTransportError: an error with no response retries with cause
// "transport".
func TestRetryTransportError(t *testing.T) {
	rc := newRecordClock()
	var calls atomic.Int32
	var causes []string
	rt := layers(ResilienceConfig{
		MaxAttempts: 2, RetryBase: time.Millisecond, Jitter: -1, Clock: rc,
		OnEvent: retryCauses(&causes),
	}, func(req *http.Request) (*http.Response, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("connection reset")
		}
		return stubResp(200), nil
	})
	req, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
	if len(causes) != 1 || causes[0] != "transport" {
		t.Fatalf("causes = %v, want [transport]", causes)
	}
}

// TestRetryReplaysBody: a POST with GetBody is replayed verbatim on
// each attempt.
func TestRetryReplaysBody(t *testing.T) {
	rc := newRecordClock()
	var calls atomic.Int32
	var bodies []string
	rt := layers(ResilienceConfig{MaxAttempts: 3, RetryBase: time.Millisecond, Jitter: -1, Clock: rc},
		func(req *http.Request) (*http.Response, error) {
			b, _ := io.ReadAll(req.Body)
			bodies = append(bodies, string(b))
			if calls.Add(1) == 1 {
				return stubResp(503), nil
			}
			return stubResp(200), nil
		})
	req, _ := http.NewRequest(http.MethodPost, "http://graph.test/v1/vertices",
		strings.NewReader(`{"ids":[1,2]}`))
	resp, err := rt.RoundTrip(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
	if len(bodies) != 2 || bodies[0] != bodies[1] || bodies[0] != `{"ids":[1,2]}` {
		t.Fatalf("bodies = %q", bodies)
	}
}

// opaqueReader hides the underlying reader's type so http.NewRequest
// cannot derive GetBody.
type opaqueReader struct{ io.Reader }

// TestRetryRefusesUnreplayableBody: a body without GetBody is never
// retried — the first failure is final.
func TestRetryRefusesUnreplayableBody(t *testing.T) {
	rc := newRecordClock()
	var calls atomic.Int32
	rt := layers(ResilienceConfig{MaxAttempts: 4, RetryBase: time.Millisecond, Jitter: -1, Clock: rc},
		func(req *http.Request) (*http.Response, error) {
			calls.Add(1)
			return stubResp(503), nil
		})
	req, _ := http.NewRequest(http.MethodPost, "http://graph.test/v1/vertices",
		opaqueReader{strings.NewReader("x")})
	if req.GetBody != nil {
		t.Fatal("test setup: GetBody unexpectedly derivable")
	}
	resp, err := rt.RoundTrip(req)
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Fatalf("attempts = %d, want 1", calls.Load())
	}
}

// TestRetryStopsOnContextCancel: once the request's own context ends,
// the outcome is returned without further attempts.
func TestRetryStopsOnContextCancel(t *testing.T) {
	rc := newRecordClock()
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	rt := layers(ResilienceConfig{MaxAttempts: 5, RetryBase: time.Millisecond, Jitter: -1, Clock: rc},
		func(req *http.Request) (*http.Response, error) {
			calls.Add(1)
			cancel() // the caller goes away mid-flight
			return stubResp(503), nil
		})
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://graph.test/v1/meta", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (cancelled context must stop retries)", calls.Load())
	}
}

// breakerStep is one scripted operation in a breaker-transition table.
type breakerStep struct {
	op   string        // "ok", "fail", "advance", "wantAllow", "wantReject", "wantState"
	d    time.Duration // for "advance"
	st   BreakerState  // for "wantState"
	note string
}

func TestBreakerTransitions(t *testing.T) {
	const threshold = 3
	const cooldown = 10 * time.Second
	cases := []struct {
		name  string
		steps []breakerStep
	}{
		{"trips after threshold consecutive failures", []breakerStep{
			{op: "fail"}, {op: "fail"},
			{op: "wantState", st: BreakerClosed, note: "below threshold"},
			{op: "fail"},
			{op: "wantState", st: BreakerOpen},
			{op: "wantReject", note: "open rejects instantly"},
		}},
		{"success resets the failure streak", []breakerStep{
			{op: "fail"}, {op: "fail"}, {op: "ok"},
			{op: "fail"}, {op: "fail"},
			{op: "wantState", st: BreakerClosed, note: "streak restarted after success"},
			{op: "fail"},
			{op: "wantState", st: BreakerOpen},
		}},
		{"cooldown elapses into a single half-open probe", []breakerStep{
			{op: "fail"}, {op: "fail"}, {op: "fail"},
			{op: "wantReject"},
			{op: "advance", d: cooldown - time.Second},
			{op: "wantReject", note: "cooldown not yet over"},
			{op: "advance", d: time.Second},
			{op: "wantState", st: BreakerHalfOpen},
			{op: "wantAllow", note: "the probe"},
			{op: "wantReject", note: "second concurrent probe rejected"},
			{op: "ok"},
			{op: "wantState", st: BreakerClosed},
			{op: "wantAllow"},
		}},
		{"failed probe re-opens for a fresh cooldown", []breakerStep{
			{op: "fail"}, {op: "fail"}, {op: "fail"},
			{op: "advance", d: cooldown},
			{op: "wantAllow"},
			{op: "fail", note: "the probe fails"},
			{op: "wantState", st: BreakerOpen},
			{op: "wantReject"},
			{op: "advance", d: cooldown},
			{op: "wantAllow", note: "second probe after second cooldown"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := newFakeClock()
			b := newBreaker(threshold, cooldown, fc)
			for i, s := range tc.steps {
				switch s.op {
				case "ok", "fail":
					// Failures recorded directly; admission is scripted
					// separately so tables stay readable.
					b.record(s.op == "ok")
				case "advance":
					fc.Advance(s.d)
				case "wantAllow":
					if err := b.allow(); err != nil {
						t.Fatalf("step %d (%s): allow() = %v, want admit", i, s.note, err)
					}
				case "wantReject":
					err := b.allow()
					if err == nil {
						t.Fatalf("step %d (%s): allow() admitted, want reject", i, s.note)
					}
					if !errors.Is(err, ErrCircuitOpen) {
						t.Fatalf("step %d: reject error %v does not wrap ErrCircuitOpen", i, err)
					}
				case "wantState":
					if got := b.currentState(); got != s.st {
						t.Fatalf("step %d (%s): state = %s, want %s", i, s.note, got, s.st)
					}
				default:
					t.Fatalf("bad step op %q", s.op)
				}
			}
		})
	}
}

// TestBreakerSnapshotRestoresRemainingCooldown: the snapshot stores the
// unexpired cooldown as a duration, so a restore re-anchors it at the
// new clock's now — a resumed crawl stays backed off for exactly as
// long as the original would have.
func TestBreakerSnapshotRestoresRemainingCooldown(t *testing.T) {
	fc1 := newFakeClock()
	b1 := newBreaker(2, 10*time.Second, fc1)
	b1.record(false)
	b1.record(false) // open
	fc1.Advance(4 * time.Second)
	s := b1.snapshot()
	if s.State != BreakerOpen || s.RemainingNS != int64(6*time.Second) {
		t.Fatalf("snapshot = %+v, want open with 6s remaining", s)
	}

	fc2 := newFakeClock()
	fc2.Advance(42 * time.Hour) // a very different wall clock
	b2 := newBreaker(2, 10*time.Second, fc2)
	b2.restoreSnapshot(s)
	if err := b2.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("restored breaker admitted during cooldown: %v", err)
	}
	fc2.Advance(5 * time.Second)
	if err := b2.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("restored breaker admitted 1s early: %v", err)
	}
	fc2.Advance(time.Second)
	if err := b2.allow(); err != nil {
		t.Fatalf("restored breaker still rejecting after cooldown: %v", err)
	}
}

// TestBreakerSnapshotKeepsFailureStreak: a closed breaker's consecutive
// failure count survives the round trip — one more failure after
// restore trips it.
func TestBreakerSnapshotKeepsFailureStreak(t *testing.T) {
	fc := newFakeClock()
	b1 := newBreaker(3, time.Second, fc)
	b1.record(false)
	b1.record(false)
	s := b1.snapshot()
	if s.State != BreakerClosed || s.Failures != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	b2 := newBreaker(3, time.Second, fc)
	b2.restoreSnapshot(s)
	b2.record(false)
	if got := b2.currentState(); got != BreakerOpen {
		t.Fatalf("state after restored streak + 1 failure = %s, want open", got)
	}
}

func TestLimiterReserve(t *testing.T) {
	fc := newFakeClock()
	l := newLimiter(1, 2, fc) // 1 rps, burst 2
	steps := []struct {
		advance time.Duration
		want    time.Duration
	}{
		{0, 0},               // burst token 1
		{0, 0},               // burst token 2
		{0, 1 * time.Second}, // borrowed: 1 token deficit
		{0, 2 * time.Second}, // deeper in debt
		{3 * time.Second, 0}, // refill covers the debt
	}
	for i, s := range steps {
		if s.advance > 0 {
			fc.Advance(s.advance)
		}
		if got := l.reserve("graph.test"); got != s.want {
			t.Fatalf("reserve %d = %v, want %v", i, got, s.want)
		}
	}
	// A different host has its own untouched bucket.
	if got := l.reserve("other.test"); got != 0 {
		t.Fatalf("fresh host reserve = %v, want 0", got)
	}
}

// TestLimiterSnapshotRestore: balances round-trip exactly under a
// frozen clock, and restores clamp to the configured burst.
func TestLimiterSnapshotRestore(t *testing.T) {
	fc := newFakeClock()
	l1 := newLimiter(2, 4, fc)
	l1.reserve("a.test")
	l1.reserve("a.test")
	l1.reserve("b.test")
	snap := l1.snapshot()
	if snap["a.test"] != 2 || snap["b.test"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}

	l2 := newLimiter(2, 4, fc)
	l2.restore(snap)
	if got := l2.snapshot(); got["a.test"] != 2 || got["b.test"] != 3 {
		t.Fatalf("restored snapshot = %v", got)
	}
	// A balance above burst (e.g. from a config change) clamps.
	l2.restore(map[string]float64{"a.test": 99})
	if got := l2.snapshot(); got["a.test"] != 4 {
		t.Fatalf("clamped balance = %v, want burst 4", got["a.test"])
	}
}

// TestRateLimitMiddlewareWaits: the limiter layer waits out exactly
// the reserved deficit on the configured clock.
func TestRateLimitMiddlewareWaits(t *testing.T) {
	rc := newRecordClock()
	rt := layers(ResilienceConfig{MaxAttempts: 1, RateLimit: 100, RateBurst: 1, Clock: rc},
		func(req *http.Request) (*http.Response, error) {
			return stubResp(200), nil
		})
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Burst 1 at 100 rps: first free, then 10ms per deficit token.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond}
	got := rc.recorded()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("waits = %v, want %v", got, want)
	}
}

func TestHedgeEligibility(t *testing.T) {
	get, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
	post, _ := http.NewRequest(http.MethodPost, "http://graph.test/v1/vertices", strings.NewReader("x"))
	marked, _ := http.NewRequestWithContext(MarkHedgeable(context.Background()),
		http.MethodPost, "http://graph.test/v1/vertices", strings.NewReader("x"))
	raw, _ := http.NewRequestWithContext(MarkHedgeable(context.Background()),
		http.MethodPost, "http://graph.test/v1/vertices", opaqueReader{strings.NewReader("x")})
	cases := []struct {
		name string
		req  *http.Request
		want bool
	}{
		{"GET", get, true},
		{"unmarked POST", post, false},
		{"marked POST with GetBody", marked, true},
		{"marked POST without GetBody", raw, false},
	}
	for _, tc := range cases {
		if got := hedgeEligible(tc.req); got != tc.want {
			t.Fatalf("%s: hedgeEligible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHedgeWinnerCancelsLoser: the first leg hangs, the hedge timer
// fires on the fake clock, the second leg wins, and the losing leg's
// context is cancelled immediately.
func TestHedgeWinnerCancelsLoser(t *testing.T) {
	fc := newFakeClock()
	var calls atomic.Int32
	loserCancelled := make(chan struct{})
	rt := layers(ResilienceConfig{MaxAttempts: 1, HedgeDelay: 50 * time.Millisecond, Clock: fc},
		func(req *http.Request) (*http.Response, error) {
			if calls.Add(1) == 1 {
				<-req.Context().Done() // hang until hedging cancels us
				close(loserCancelled)
				return nil, req.Context().Err()
			}
			return stubResp(200), nil
		})
	req, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
	type outcome struct {
		resp *http.Response
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := rt.RoundTrip(req)
		done <- outcome{resp, err}
	}()
	<-fc.added // the hedge timer is armed; leg 1 is in flight
	fc.Advance(50 * time.Millisecond)
	out := <-done
	if out.err != nil || out.resp.StatusCode != 200 {
		t.Fatalf("hedged outcome resp=%v err=%v", out.resp, out.err)
	}
	out.resp.Body.Close()
	if calls.Load() != 2 {
		t.Fatalf("legs launched = %d, want 2", calls.Load())
	}
	select {
	case <-loserCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing leg was never cancelled")
	}
}

// TestHedgeFastFailureDoesNotHedge: a first leg that fails before the
// hedge delay returns immediately — backoff is the retry layer's job.
func TestHedgeFastFailureDoesNotHedge(t *testing.T) {
	fc := newFakeClock()
	var calls atomic.Int32
	rt := layers(ResilienceConfig{MaxAttempts: 1, HedgeDelay: 50 * time.Millisecond, Clock: fc},
		func(req *http.Request) (*http.Response, error) {
			calls.Add(1)
			return nil, errors.New("connection refused")
		})
	req, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
	if _, err := rt.RoundTrip(req); err == nil {
		t.Fatal("expected the leg's error")
	}
	if calls.Load() != 1 {
		t.Fatalf("legs launched = %d, want 1", calls.Load())
	}
}

// TestHedgeIneligiblePassesThrough: non-idempotent requests go straight
// to the transport, exactly once.
func TestHedgeIneligiblePassesThrough(t *testing.T) {
	fc := newFakeClock()
	var calls atomic.Int32
	rt := layers(ResilienceConfig{MaxAttempts: 1, HedgeDelay: time.Nanosecond, Clock: fc},
		func(req *http.Request) (*http.Response, error) {
			calls.Add(1)
			return stubResp(200), nil
		})
	req, _ := http.NewRequest(http.MethodPost, "http://graph.test/v1/vertices",
		opaqueReader{strings.NewReader("x")})
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

// TestAttemptTimeout: a hung transport is cut off by the per-attempt
// deadline (real wall clock, by design — it bounds real hangs).
func TestAttemptTimeout(t *testing.T) {
	rt := layers(ResilienceConfig{MaxAttempts: 1, AttemptTimeout: 5 * time.Millisecond},
		func(req *http.Request) (*http.Response, error) {
			<-req.Context().Done()
			return nil, req.Context().Err()
		})
	req, _ := http.NewRequest(http.MethodGet, "http://graph.test/v1/meta", nil)
	if _, err := rt.RoundTrip(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestChainOrder pins the layer order retry → breaker → limiter →
// hedge → attempt timeout → transport, one adjacent pair at a time,
// through what each order lets a request do.
func TestChainOrder(t *testing.T) {
	const host = "graph.test"
	get := func(t *testing.T, rt http.RoundTripper) (*http.Response, error) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, "http://"+host+"/v1/meta", nil)
		return rt.RoundTrip(req)
	}

	// retry → breaker → limiter: once the first 503 trips the breaker,
	// the retries are refused without reaching the limiter or the
	// transport.
	t.Run("retry, breaker, limiter", func(t *testing.T) {
		var calls atomic.Int32
		res := newResilience(ResilienceConfig{
			MaxAttempts: 3, RetryBase: time.Millisecond, Jitter: -1,
			BreakerThreshold: 1, BreakerCooldown: time.Hour,
			RateLimit: 1, RateBurst: 5, Clock: newRecordClock(),
		})
		_, err := get(t, res.wrap(roundTripFunc(func(req *http.Request) (*http.Response, error) {
			calls.Add(1)
			return stubResp(503), nil
		})))
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("err = %v, want the open breaker's refusal", err)
		}
		if calls.Load() != 1 {
			t.Fatalf("transport calls = %d, want 1: retries must pass through the breaker", calls.Load())
		}
		if tokens := res.limiter.snapshot()[host]; tokens < 3.5 || tokens > 4.5 {
			t.Fatalf("limiter balance = %v, want about 4: refused retries must not spend tokens", tokens)
		}
	})

	// limiter → hedge: a hedged pair is one admission.
	t.Run("limiter, hedge", func(t *testing.T) {
		fc := newFakeClock()
		var calls atomic.Int32
		res := newResilience(ResilienceConfig{
			MaxAttempts: 1, RateLimit: 1, RateBurst: 5, HedgeDelay: 50 * time.Millisecond, Clock: fc,
		})
		rt := res.wrap(roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if calls.Add(1) == 1 {
				<-req.Context().Done()
				return nil, req.Context().Err()
			}
			return stubResp(200), nil
		}))
		done := make(chan error, 1)
		go func() {
			resp, err := get(t, rt)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		<-fc.added // the hedge timer is armed
		fc.Advance(50 * time.Millisecond)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 2 {
			t.Fatalf("legs = %d, want 2", calls.Load())
		}
		if tokens := res.limiter.snapshot()[host]; tokens < 3.5 || tokens > 4.5 {
			t.Fatalf("limiter balance = %v, want about 4: a hedged pair spends one token", tokens)
		}
	})

	// hedge → attempt timeout: each hedge leg gets its own deadline.
	t.Run("hedge, attempt timeout", func(t *testing.T) {
		fc := newFakeClock()
		var calls atomic.Int32
		deadlines := make(chan time.Time, 2)
		rt := layers(ResilienceConfig{
			MaxAttempts: 1, HedgeDelay: 50 * time.Millisecond, AttemptTimeout: time.Hour, Clock: fc,
		}, func(req *http.Request) (*http.Response, error) {
			d, _ := req.Context().Deadline()
			deadlines <- d
			if calls.Add(1) == 1 {
				<-req.Context().Done()
				return nil, req.Context().Err()
			}
			return stubResp(200), nil
		})
		done := make(chan error, 1)
		go func() {
			resp, err := get(t, rt)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		first := <-deadlines
		<-fc.added
		fc.Advance(50 * time.Millisecond)
		second := <-deadlines
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if first.IsZero() || !second.After(first) {
			t.Fatalf("leg deadlines %v and %v: each hedge leg must arm its own", first, second)
		}
	})
}
