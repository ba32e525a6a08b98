package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// an ascending slice; 0 on an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps q×n/100 from rounding up past an exact rank
	// (99.9 × 1000 / 100 is not exactly 999 in binary).
	rank := int(math.Ceil(q*float64(len(sorted))/100 - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailCandidates are the upper percentiles a latency may be reported
// at, lowest first.
var tailCandidates = []float64{50, 90, 99, 99.9}

// supportedTail picks the percentile a tail latency is reported at: the
// highest candidate no greater than want that still has at least ten
// samples beyond it, or the median when none has (a single batch call
// is its own median).
func supportedTail(n int, want float64) float64 {
	best := tailCandidates[0]
	for _, q := range tailCandidates {
		beyond := n - int(math.Ceil(q*float64(n)/100-1e-9))
		if q <= want && beyond >= 10 {
			best = q
		}
	}
	return best
}

// sortedMs converts durations to ascending milliseconds.
func sortedMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is what the acceptance rule for this benchmark is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict is the outcome of comparing one metric between two sets of
// runs.
type verdict string

const (
	vUnchanged  verdict = "unchanged"
	vImproved   verdict = "improved"
	vWorse      verdict = "worse-within-bound"
	vRegressed  verdict = "regressed"
	vUnresolved verdict = "unresolved"
)

// compareRuns applies the measurement rule to one metric: the medians
// differ only when they are further apart than the base's own
// inter-quartile spread, a difference is a regression only beyond the
// metric's bound, and when the base's spread is itself wider than the
// bound the metric is unresolved unless every run of one side beats
// every run of the other.
func compareRuns(base, change []float64, lowerIsBetter bool, bound float64) verdict {
	if len(base) == 0 || len(change) == 0 {
		return vUnresolved
	}
	mb, mc := median(base), median(change)
	q1, q3 := quartiles(base)
	spread := q3 - q1
	worseBy := mc - mb
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	if mb != 0 && spread/math.Abs(mb) > bound {
		switch {
		case allBetter(change, base, lowerIsBetter):
			return vImproved
		case allBetter(base, change, lowerIsBetter):
			return vRegressed
		}
		return vUnresolved
	}
	switch {
	case worseBy > bound*math.Abs(mb):
		return vRegressed
	case worseBy > spread:
		return vWorse
	case -worseBy > spread:
		return vImproved
	}
	return vUnchanged
}

// allBetter reports whether every value of a reads better than every
// value of b.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	if lowerIsBetter {
		return maxA < minB
	}
	return minA > maxB
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
