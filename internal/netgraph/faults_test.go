package netgraph

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"frontier/internal/gen"
	"frontier/internal/xrand"
)

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("rate=0.1,seed=7,statuses=429+500+503,burst=3,drop=0.2,slow=0.05:5ms,flap=200:40")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{
		Seed: 7, Rate: 0.1, Statuses: []int{429, 500, 503}, Burst: 3,
		DropRate: 0.2, SlowRate: 0.05, SlowDelay: 5 * time.Millisecond,
		FlapEvery: 200, FlapFor: 40,
	}
	if spec.Seed != want.Seed || spec.Rate != want.Rate || spec.Burst != want.Burst ||
		spec.DropRate != want.DropRate || spec.SlowRate != want.SlowRate ||
		spec.SlowDelay != want.SlowDelay || spec.FlapEvery != want.FlapEvery ||
		spec.FlapFor != want.FlapFor || len(spec.Statuses) != 3 || spec.Statuses[1] != 500 {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	// Empty terms and whitespace are tolerated.
	if _, err := ParseFaultSpec(" rate=0.5 , "); err != nil {
		t.Fatal(err)
	}
}

func TestParseFaultSpecErrors(t *testing.T) {
	bad := []string{
		"rate",            // no value
		"rate=abc",        // not a number
		"bogus=1",         // unknown key
		"statuses=200",    // not a fault status
		"statuses=teapot", // not a number
		"slow=0.1",        // missing delay
		"slow=0.1:fast",   // bad duration
		"flap=10",         // missing window length
		"seed=-1",         // negative seed
		"burst=many",      // not an int
		"rate=NaN",        // not a probability
		"rate=-1",         // below 0
		"rate=1.5",        // above 1
		"drop=2",          // above 1
		"burst=-3",        // negative run length
		"flap=-5:3",       // negative period
		"flap=0:3",        // a given flap needs a period
		"flap=10:-1",      // negative window
		"slow=0.5:-1ms",   // negative delay
		"slow=Inf:5ms",    // not a probability
	}
	for _, s := range bad {
		if _, err := ParseFaultSpec(s); err == nil {
			t.Fatalf("ParseFaultSpec(%q) accepted, want error", s)
		}
	}
}

// FuzzParseFaultSpec: ParseFaultSpec never panics, and every spec it
// accepts lies within the documented ranges.
func FuzzParseFaultSpec(f *testing.F) {
	for _, s := range []string{
		"rate=0.1,seed=7,statuses=429+500+503,burst=3,drop=0.2,slow=0.05:5ms,flap=200:40",
		" rate=0.5 , ", "rate=NaN", "flap=-5:3", "slow=Inf:5ms", "slow=0.5:-1ms", "burst=-3",
	} {
		f.Add(s)
	}
	unit := func(r float64) bool { return r >= 0 && r <= 1 }
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFaultSpec(s)
		if err != nil {
			return
		}
		if !unit(spec.Rate) || !unit(spec.DropRate) || !unit(spec.SlowRate) ||
			spec.Burst < 0 || spec.SlowDelay < 0 || spec.FlapEvery < 0 || spec.FlapFor < 0 ||
			(spec.FlapEvery == 0 && spec.FlapFor != 0) {
			t.Fatalf("ParseFaultSpec(%q) accepted out-of-range %+v", s, spec)
		}
		for _, st := range spec.Statuses {
			if st < 400 || st > 599 {
				t.Fatalf("ParseFaultSpec(%q) accepted status %d", s, st)
			}
		}
	})
}

// TestFaultInjectorDeterminism: the same spec yields the exact same
// fault sequence; a different seed diverges.
func TestFaultInjectorDeterminism(t *testing.T) {
	spec := FaultSpec{Seed: 7, Rate: 0.3, Burst: 2, DropRate: 0.25, SlowRate: 0.1, SlowDelay: time.Millisecond}
	a := newFaultInjector(spec)
	b := newFaultInjector(spec)
	var faults int
	for i := 0; i < 1000; i++ {
		fa, fb := a.decide(), b.decide()
		if fa != fb {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, fa, fb)
		}
		if fa.drop || fa.status != 0 {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("rate 0.3 over 1000 draws injected nothing")
	}

	other := spec
	other.Seed = 8
	c := newFaultInjector(other)
	same := true
	a2 := newFaultInjector(spec)
	for i := 0; i < 1000; i++ {
		if a2.decide() != c.decide() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestFaultInjectorFlap: with only a flap schedule configured, exactly
// the first FlapFor of every FlapEvery requests fault.
func TestFaultInjectorFlap(t *testing.T) {
	f := newFaultInjector(FaultSpec{FlapEvery: 10, FlapFor: 3, Statuses: []int{503}})
	for i := 0; i < 40; i++ {
		act := f.decide()
		wantFault := i%10 < 3
		if gotFault := act.status != 0; gotFault != wantFault {
			t.Fatalf("request %d: fault=%v, want %v", i, gotFault, wantFault)
		}
	}
}

// TestFaultInjectorBurst: once a fault fires, the next Burst-1 eligible
// requests fault unconditionally.
func TestFaultInjectorBurst(t *testing.T) {
	f := newFaultInjector(FaultSpec{Statuses: []int{500}})
	f.burstLeft = 2 // as if a burst of 3 just started
	for i := 0; i < 2; i++ {
		if act := f.decide(); act.status == 0 {
			t.Fatalf("burst request %d did not fault", i)
		}
	}
	// Burst exhausted and rate 0: back to healthy.
	if act := f.decide(); act.status != 0 || act.drop {
		t.Fatalf("post-burst request faulted: %+v", act)
	}
}

// TestFaultInjectorCounts: the counters add up by kind.
func TestFaultInjectorCounts(t *testing.T) {
	f := newFaultInjector(FaultSpec{Seed: 3, Rate: 0.5, DropRate: 0.4, SlowRate: 0.3, SlowDelay: time.Millisecond})
	for i := 0; i < 500; i++ {
		f.decide()
	}
	byStatus, drops, slows, total := f.counts()
	var statusSum int64
	for _, n := range byStatus {
		statusSum += n
	}
	if statusSum == 0 || drops == 0 || slows == 0 {
		t.Fatalf("counts: statuses=%d drops=%d slows=%d — every kind should fire at these rates", statusSum, drops, slows)
	}
	if total != statusSum+drops {
		t.Fatalf("total = %d, want statuses+drops = %d", total, statusSum+drops)
	}
}

// TestServerFaultStatus: a WithFaults server answers data-plane
// requests with the injected status (429 carries Retry-After: 0),
// leaves observability endpoints alone, and surfaces counts in Stats
// and /metrics.
func TestServerFaultStatus(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(5), 50, 2)
	srv := NewServer("f", g, nil, WithFaults(FaultSpec{Rate: 1, Statuses: []int{429}}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("data-plane status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "0" {
		t.Fatalf("Retry-After = %q, want \"0\"", ra)
	}

	// Observability stays fault-free even at rate 1.
	for _, path := range []string{"/healthz", "/v1/stats", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d under faults", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), `graphd_faults_injected_total{kind="status_429"} 1`) {
			t.Fatalf("/metrics missing fault counter:\n%s", body)
		}
	}

	st := srv.Stats()
	if st.FaultsInjected != 1 || st.FaultsByStatus["429"] != 1 {
		t.Fatalf("stats = injected %d byStatus %v", st.FaultsInjected, st.FaultsByStatus)
	}
}

// TestServerFaultDrop: an injected drop severs the connection — the
// client sees a transport error, not a status.
func TestServerFaultDrop(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(5), 50, 2)
	srv := NewServer("f", g, nil, WithFaults(FaultSpec{Rate: 1, DropRate: 1}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/meta")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("dropped connection produced a response: %d", resp.StatusCode)
	}
	if st := srv.Stats(); st.FaultsDropped != 1 {
		t.Fatalf("FaultsDropped = %d, want 1", st.FaultsDropped)
	}
}

// TestServerFaultSlow: slow responses are served correctly, just late,
// and counted.
func TestServerFaultSlow(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(5), 50, 2)
	srv := NewServer("f", g, nil, WithFaults(FaultSpec{SlowRate: 1, SlowDelay: time.Millisecond}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow response status = %d", resp.StatusCode)
	}
	if st := srv.Stats(); st.FaultsSlowed != 1 {
		t.Fatalf("FaultsSlowed = %d, want 1", st.FaultsSlowed)
	}
}
