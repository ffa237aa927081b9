package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest whole percentile of n samples
// that has at least minBeyond samples strictly beyond it under the
// nearest-rank rule (the p-th percentile is the ceil(p·n/100)-th
// smallest sample). ok is false when n is too small for any
// percentile to qualify.
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 1; p-- {
		rank := (p*n + 99) / 100
		if n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// [0,100]); NaN for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ladderSelf turns cumulative rung totals, smallest stack first, into
// per-layer self times: the first rung is its own self time and every
// other layer costs its rung minus the rung below. The self times sum
// to the top rung exactly.
func ladderSelf(rungs []float64) []float64 {
	self := make([]float64, len(rungs))
	for i, r := range rungs {
		self[i] = r
		if i > 0 {
			self[i] -= rungs[i-1]
		}
	}
	return self
}

// rungSlack is how far a rung may fall below the rung beneath it, as
// a share of that rung, before the ladder counts as broken. The rungs
// are raw wall-clock totals taken seconds apart, so some noise is
// expected; a larger stack does all the work of the smaller one, so a
// rung further below means a negative self time: the ladder
// mis-attributes a layer.
const rungSlack = 0.1

// checkRungs checks that each rung total is at least the one before
// it, less rungSlack of it.
func checkRungs(names []string, rungs []float64) error {
	for i := 1; i < len(rungs); i++ {
		if rungs[i] < (1-rungSlack)*rungs[i-1] {
			return fmt.Errorf("ladder: %s (%.0f ns) is below %s (%.0f ns) by more than %.0f%%: a negative self time",
				names[i], rungs[i], names[i-1], rungs[i-1], 100*rungSlack)
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 derives well-mixed task seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// taskSeed is the seed of task k of a run with workload seed s.
func taskSeed(s uint64, k int) uint64 {
	return splitmix64(s*0x100000001b3 + uint64(k) + 1)
}

// FNV-1a over the observation sequence, the same order-sensitive hash
// the job service reports as edge_hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashObs folds one observation's (u, v) pair into h.
func hashObs(h uint64, u, v int) uint64 {
	for _, x := range [2]uint64{uint64(u), uint64(v)} {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}
