package netgraph

// Seeded, deterministic fault injection for the graph server. WithFaults
// grows the WithLatency idea — "model a real OSN API" — from slow to
// unreliable: 429/500/503 bursts, dropped connections, slow responses
// and flap schedules, all drawn from one seeded stream so a test that
// replays the same request arrival order sees the exact same fault
// sequence. Every resilience behavior in the client middleware chain is
// provable by replayable test, not by luck.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"frontier/internal/obs"
	"frontier/internal/xrand"
)

// DefaultFaultStatuses is the status set injected faults draw from when
// a FaultSpec does not name its own: the three statuses a real
// rate-limited OSN API returns under load.
var DefaultFaultStatuses = []int{
	http.StatusTooManyRequests,     // 429
	http.StatusInternalServerError, // 500
	http.StatusServiceUnavailable,  // 503
}

// FaultSpec configures deterministic fault injection (see WithFaults).
// Faults apply to the data-plane endpoints a crawler hits — /v1/meta,
// /v1/vertex/{id} and /v1/vertices — never to the observability
// endpoints or the job API, so a test can watch a fault storm through
// /v1/stats while it happens.
//
// Decisions are drawn per eligible request, in arrival order, from one
// stream seeded with Seed: identical request sequences see identical
// fault sequences.
type FaultSpec struct {
	// Seed seeds the fault stream.
	Seed uint64
	// Rate is the probability an eligible request starts a fault
	// (burst) in [0,1].
	Rate float64
	// Statuses is the set of fault statuses drawn from, uniformly
	// (nil = DefaultFaultStatuses).
	Statuses []int
	// Burst makes faults arrive in runs: once a fault fires, the next
	// Burst-1 eligible requests fault too (0 or 1 = single faults).
	Burst int
	// DropRate is the probability a fault drops the connection without
	// a response (modeling a severed TCP stream) instead of returning a
	// status, in [0,1].
	DropRate float64
	// SlowRate is the probability a non-faulted request is served
	// after an extra SlowDelay sleep, in [0,1].
	SlowRate float64
	// SlowDelay is the extra latency of a slow response.
	SlowDelay time.Duration
	// FlapEvery and FlapFor schedule hard outages: of every FlapEvery
	// eligible requests, the first FlapFor fault unconditionally — the
	// API "flaps" down and recovers on a fixed period (0 disables).
	FlapEvery int
	// FlapFor is the length of each flap window (see FlapEvery).
	FlapFor int
}

// statuses returns the configured fault status set or the default.
func (f FaultSpec) statuses() []int {
	if len(f.Statuses) > 0 {
		return f.Statuses
	}
	return DefaultFaultStatuses
}

// ParseFaultSpec parses the graphd -faults flag syntax: comma-separated
// key=value terms, e.g.
//
//	rate=0.1,seed=7,statuses=429+500+503,burst=3,drop=0.2,slow=0.05:5ms,flap=200:40
//
// Keys: rate, seed, statuses (plus-separated), burst, drop,
// slow=RATE:DELAY, flap=EVERY:FOR. Unknown keys are an error. Rates
// (rate, drop and slow's RATE) must be finite and in [0,1]; burst,
// slow's DELAY and flap's counts must be non-negative, and a given flap
// needs EVERY >= 1.
func ParseFaultSpec(s string) (FaultSpec, error) {
	var spec FaultSpec
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return FaultSpec{}, fmt.Errorf("netgraph: bad fault term %q (want key=value)", term)
		}
		var err error
		switch key {
		case "rate":
			spec.Rate, err = parseRate(val)
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		case "burst":
			spec.Burst, err = parseCount(val)
		case "drop":
			spec.DropRate, err = parseRate(val)
		case "statuses":
			for _, sv := range strings.Split(val, "+") {
				st, serr := strconv.Atoi(sv)
				if serr != nil || st < 400 || st > 599 {
					return FaultSpec{}, fmt.Errorf("netgraph: bad fault status %q", sv)
				}
				spec.Statuses = append(spec.Statuses, st)
			}
		case "slow":
			rateStr, delayStr, ok := strings.Cut(val, ":")
			if !ok {
				return FaultSpec{}, fmt.Errorf("netgraph: bad slow term %q (want slow=RATE:DELAY)", val)
			}
			if spec.SlowRate, err = parseRate(rateStr); err == nil {
				spec.SlowDelay, err = time.ParseDuration(delayStr)
			}
			if err == nil && spec.SlowDelay < 0 {
				err = fmt.Errorf("delay %v is negative", spec.SlowDelay)
			}
		case "flap":
			everyStr, forStr, ok := strings.Cut(val, ":")
			if !ok {
				return FaultSpec{}, fmt.Errorf("netgraph: bad flap term %q (want flap=EVERY:FOR)", val)
			}
			if spec.FlapEvery, err = parseCount(everyStr); err == nil {
				spec.FlapFor, err = parseCount(forStr)
			}
			if err == nil && spec.FlapEvery < 1 {
				err = fmt.Errorf("flap period %d is not positive", spec.FlapEvery)
			}
		default:
			return FaultSpec{}, fmt.Errorf("netgraph: unknown fault key %q", key)
		}
		if err != nil {
			return FaultSpec{}, fmt.Errorf("netgraph: bad fault term %q: %v", term, err)
		}
	}
	return spec, nil
}

// parseRate parses a probability: a finite number in [0,1].
func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err == nil && !(r >= 0 && r <= 1) {
		err = fmt.Errorf("rate %v is outside [0,1]", r)
	}
	return r, err
}

// parseCount parses a non-negative integer.
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n < 0 {
		err = fmt.Errorf("%d is negative", n)
	}
	return n, err
}

// faultAction is one request's injected fate.
type faultAction struct {
	drop   bool          // sever the connection without responding
	status int           // respond with this fault status (0 = none)
	slow   time.Duration // serve normally after this extra delay
}

// faultInjector draws fault decisions from one seeded stream, in
// request arrival order, and counts what it injected.
type faultInjector struct {
	spec FaultSpec

	mu        sync.Mutex
	rng       *xrand.Rand
	index     int64 // eligible requests seen (drives the flap schedule)
	burstLeft int   // remaining forced faults in the current burst

	byStatus map[int]int64
	drops    int64
	slows    int64
}

// newFaultInjector builds the injector for a spec.
func newFaultInjector(spec FaultSpec) *faultInjector {
	return &faultInjector{spec: spec, rng: xrand.New(spec.Seed), byStatus: make(map[int]int64)}
}

// decide draws the next eligible request's fate. One lock, arrival
// order: with a fixed request sequence the decisions are reproducible.
func (f *faultInjector) decide() faultAction {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.index
	f.index++
	fault := false
	switch {
	case f.spec.FlapEvery > 0 && int(i%int64(f.spec.FlapEvery)) < f.spec.FlapFor:
		fault = true
	case f.burstLeft > 0:
		f.burstLeft--
		fault = true
	case f.spec.Rate > 0 && f.rng.Float64() < f.spec.Rate:
		fault = true
		if f.spec.Burst > 1 {
			f.burstLeft = f.spec.Burst - 1
		}
	}
	if fault {
		if f.spec.DropRate > 0 && f.rng.Float64() < f.spec.DropRate {
			f.drops++
			return faultAction{drop: true}
		}
		sts := f.spec.statuses()
		st := sts[f.rng.Intn(len(sts))]
		f.byStatus[st]++
		return faultAction{status: st}
	}
	if f.spec.SlowRate > 0 && f.spec.SlowDelay > 0 && f.rng.Float64() < f.spec.SlowRate {
		f.slows++
		return faultAction{slow: f.spec.SlowDelay}
	}
	return faultAction{}
}

// counts snapshots the injected-fault counters: per-status, dropped
// connections, slowed responses, and the total of hard faults
// (statuses + drops).
func (f *faultInjector) counts() (byStatus map[string]int64, drops, slows, total int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.byStatus) > 0 {
		byStatus = make(map[string]int64, len(f.byStatus))
		for st, n := range f.byStatus {
			byStatus[strconv.Itoa(st)] = n
			total += n
		}
	}
	return byStatus, f.drops, f.slows, total + f.drops
}

// faultEligible reports whether a request is on the data plane the
// injector targets: graph metadata, single-vertex and batch fetches.
func faultEligible(r *http.Request) bool {
	p := r.URL.Path
	return p == "/v1/meta" || p == "/v1/vertices" || strings.HasPrefix(p, "/v1/vertex/")
}

// injectFault applies the injector's decision for one eligible request.
// It reports whether the request was consumed (a status was written or
// the connection dropped); slow responses sleep here and return false
// so the mux serves them normally.
func (s *Server) injectFault(w http.ResponseWriter, r *http.Request) bool {
	act := s.faults.decide()
	switch {
	case act.drop:
		// net/http's documented way to abort without a response: the
		// server severs the connection and the client sees io.EOF —
		// exactly what a flaky API's dropped connection looks like.
		panic(http.ErrAbortHandler)
	case act.status != 0:
		if act.status == http.StatusTooManyRequests {
			// A real 429 advertises when to come back; "0" keeps the
			// client's own backoff schedule in charge, which is what
			// the deterministic acceptance tests replay.
			w.Header().Set("Retry-After", "0")
		}
		http.Error(w, "injected fault", act.status)
		return true
	case act.slow > 0:
		time.Sleep(act.slow)
	}
	return false
}

// writeFaultMetrics appends the injector's counters in Prometheus text
// form (only when fault injection is configured).
func (f *faultInjector) writeFaultMetrics(b *strings.Builder) {
	byStatus, drops, slows, _ := f.counts()
	fmt.Fprintf(b, "# HELP graphd_faults_injected_total Injected faults by kind.\n# TYPE graphd_faults_injected_total counter\n")
	kinds := make([]string, 0, len(byStatus)+2)
	for st := range byStatus {
		kinds = append(kinds, "status_"+st)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(b, "graphd_faults_injected_total{kind=\"%s\"} %d\n", obs.EscapeLabel(k), byStatus[strings.TrimPrefix(k, "status_")])
	}
	if drops > 0 {
		fmt.Fprintf(b, "graphd_faults_injected_total{kind=\"drop\"} %d\n", drops)
	}
	if slows > 0 {
		fmt.Fprintf(b, "graphd_faults_injected_total{kind=\"slow\"} %d\n", slows)
	}
}

// WithFaults injects seeded, deterministic faults into the data-plane
// endpoints: each eligible request may be answered with a fault status
// (429 carries Retry-After: 0), dropped without a response, or served
// slowly, per spec. Decisions are drawn in arrival order from a stream
// seeded with spec.Seed, so tests replaying a fixed request sequence
// get a byte-reproducible fault schedule. Injected counts surface in
// GET /v1/stats and as graphd_faults_injected_total{kind} in
// GET /metrics.
func WithFaults(spec FaultSpec) ServerOption {
	return func(s *Server) { s.faults = newFaultInjector(spec) }
}
