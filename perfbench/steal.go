package main

import (
	"bufio"
	"bytes"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor can take a virtual CPU away
// while it has work ("steal"). On a shared host steal comes and goes
// for minutes at a time and stretches every wall-clock duration by up
// to half, so two runs of the same code disagree by more than any
// useful bound. The benchmark's durations are wall-clock with the
// stolen share taken out: a duration d over which the CPUs lost a
// share s of their working time to steal is reported as d·(1−s).

const (
	// stealEvery is how often the steal clock samples /proc/stat.
	stealEvery = 50 * time.Millisecond
	// stealWindow is the shortest interval the steal share is read
	// over. /proc/stat counts in 10 ms ticks, so a shorter interval
	// is mostly rounding; steal changes over minutes, so a window
	// centered on a short interval still describes it.
	stealWindow = 2 * time.Second
)

// cpuTicks is one CPU's cumulative /proc/stat counters, in ticks.
type cpuTicks struct{ busy, steal float64 }

type cpuSample struct {
	t    time.Time
	cpus []cpuTicks
}

// stealClock samples every CPU's steal in the background until
// stopped, and converts wall-clock intervals into steal-corrected
// durations. Without /proc/stat it corrects nothing.
type stealClock struct {
	mu      sync.Mutex
	samples []cpuSample
	stop    chan struct{}
	done    chan struct{}
}

// startStealClock takes a first sample and starts sampling.
func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.sample()
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

// close stops sampling and waits for the sampler to exit.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

func (c *stealClock) sample() {
	cpus, err := readCPUTicks()
	if err != nil {
		return
	}
	s := cpuSample{t: time.Now(), cpus: cpus}
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// readCPUTicks reads the per-CPU lines of /proc/stat.
func readCPUTicks() ([]cpuTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	var out []cpuTicks
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// "cpuN user nice system idle iowait irq softirq steal ..."
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var v [8]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
				return nil, err
			}
		}
		out = append(out, cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]})
	}
	return out, sc.Err()
}

// stealShare is the share of the CPUs' working time the hypervisor
// stole between two samples: steal ÷ (steal + busy), over all CPUs.
// Steal gathers only while a virtual CPU has work. That includes an
// idle CPU woken to take the task over, and with one task in flight
// the work hops between CPUs, so its wait delays the task as much as
// steal on a busy one.
func stealShare(a, b cpuSample) float64 {
	var busy, stolen float64
	for i := range min(len(a.cpus), len(b.cpus)) {
		busy += b.cpus[i].busy - a.cpus[i].busy
		stolen += b.cpus[i].steal - a.cpus[i].steal
	}
	if busy+stolen <= 0 {
		return 0
	}
	return stolen / (busy + stolen)
}

// share is the steal share over [from, to], read over at least
// stealWindow centered on it and clipped to the samples taken.
func (c *stealClock) share(from, to time.Time) float64 {
	if pad := stealWindow - to.Sub(from); pad > 0 {
		from, to = from.Add(-pad/2), to.Add(pad/2)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.samples)
	// The last sample at or before from and the first at or after to.
	i := max(sort.Search(n, func(k int) bool { return c.samples[k].t.After(from) })-1, 0)
	j := min(sort.Search(n, func(k int) bool { return !c.samples[k].t.Before(to) }), n-1)
	if j <= i {
		return 0
	}
	return stealShare(c.samples[i], c.samples[j])
}

// adjust is the steal-corrected duration of the wall-clock interval
// [from, to].
func (c *stealClock) adjust(from, to time.Time) time.Duration {
	return time.Duration(float64(to.Sub(from)) * (1 - c.share(from, to)))
}
