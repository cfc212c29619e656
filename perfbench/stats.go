package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as a tail figure.
const minBeyond = 10

// ladder is the set of percentiles the tail picker chooses from.
var ladder = []float64{50, 90, 99, 99.9}

// Pct is one percentile of a latency sample, with the sample count it
// was taken from and how many samples lie above it.
type Pct struct {
	P      float64 // percentile, 0-100
	Value  float64 // ms
	N      int     // samples
	Beyond int     // samples strictly above the percentile's rank
}

// quantile returns the nearest-rank p-th percentile of sorted.
func quantile(sorted []float64, p float64) Pct {
	n := len(sorted)
	if n == 0 {
		return Pct{P: p}
	}
	// The epsilon keeps float error from pushing an exact rank up one
	// (99.9% of 10000 is 9990, not 9991).
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Pct{P: p, Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// percentile sorts a copy of samples and returns its p-th percentile.
func percentile(samples []float64, p float64) Pct {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, p)
}

// tail returns the highest percentile of the ladder that still has at
// least minBeyond samples above it. With fewer samples than that even
// the median lacks, it returns the median and the caller reports the
// short count.
func tail(samples []float64) Pct {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	best := quantile(s, ladder[0])
	for _, p := range ladder[1:] {
		q := quantile(s, p)
		if q.Beyond < minBeyond {
			break
		}
		best = q
	}
	return best
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations attempted and failed. An operation fails when
// the program refuses it (an error or non-2xx status) or when its output
// fails a correctness check.
type tally struct {
	attempted, failed int
	errs              []string
}

// keep bounds the failure messages a tally retains for the report.
const keep = 20

func (t *tally) ok() { t.attempted++ }

// refused records an operation the program did not complete.
func (t *tally) refused(what string, err error) {
	t.attempted++
	t.fail(what + ": " + err.Error())
}

// wrong marks an already-counted operation whose output failed a check.
func (t *tally) wrong(what string) { t.fail(what) }

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errs) < keep {
		t.errs = append(t.errs, msg)
	}
}

// merge adds another tally's counts and messages.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
	if len(t.errs) > keep {
		t.errs = t.errs[:keep]
	}
}

// failedFrac is failed over attempted operations.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}
