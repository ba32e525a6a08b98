package metrics

import (
	"fmt"
	"math"
	"strings"
)

// TimeSeries is a mergeable bucketed time series: a fixed number of
// equal-width time buckets, each accumulating a sum and an observation
// count. Bucket i covers [i*Width, (i+1)*Width) seconds; observations
// outside the layout clamp into the first or last bucket, so a series
// never grows from data. Like Histogram, two series merge iff their
// layouts are identical, which means the layout must come from run
// configuration (tick width × tick count), never from observed data —
// that is what keeps per-shard partial series structurally compatible
// and the merged result independent of how trials were distributed
// across workers. Merging adds sums bucket-wise; with the runner's
// ordered fold fixing the merge order, aggregated series are
// bit-identical for any worker count (the same guarantee Accum,
// Histogram, and CDF.Merge honor).
type TimeSeries struct {
	width  float64
	sums   []float64
	counts []int64
}

// NewTimeSeries builds a series of `buckets` buckets of `width` seconds.
func NewTimeSeries(width float64, buckets int) (*TimeSeries, error) {
	if !(width > 0) || math.IsInf(width, 0) {
		return nil, fmt.Errorf("metrics: time series width must be positive and finite, got %g", width)
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("metrics: time series needs at least one bucket, got %d", buckets)
	}
	return &TimeSeries{
		width:  width,
		sums:   make([]float64, buckets),
		counts: make([]int64, buckets),
	}, nil
}

// Width returns the bucket width in seconds.
func (ts *TimeSeries) Width() float64 { return ts.width }

// Len returns the bucket count.
func (ts *TimeSeries) Len() int { return len(ts.sums) }

// Bucket returns the bucket index t falls into, clamped to the layout.
func (ts *TimeSeries) Bucket(t float64) int {
	i := int(math.Floor(t / ts.width))
	if i < 0 {
		return 0
	}
	if i >= len(ts.sums) {
		return len(ts.sums) - 1
	}
	return i
}

// Observe adds one observation of value v at time t seconds.
func (ts *TimeSeries) Observe(t, v float64) {
	i := ts.Bucket(t)
	ts.sums[i] += v
	ts.counts[i]++
}

// Sum returns bucket i's accumulated value.
func (ts *TimeSeries) Sum(i int) float64 { return ts.sums[i] }

// Count returns bucket i's observation count.
func (ts *TimeSeries) Count(i int) int64 { return ts.counts[i] }

// Total returns the sum over all buckets.
func (ts *TimeSeries) Total() float64 {
	t := 0.0
	for _, s := range ts.sums {
		t += s
	}
	return t
}

// PeakBucket returns the index of the bucket with the largest sum (ties
// resolve to the earliest bucket; -1 when no bucket has observations).
func (ts *TimeSeries) PeakBucket() int {
	best, bestSum := -1, math.Inf(-1)
	for i, s := range ts.sums {
		if ts.counts[i] > 0 && s > bestSum {
			best, bestSum = i, s
		}
	}
	return best
}

// Merge absorbs another series with an identical layout, adding sums and
// counts bucket-wise.
func (ts *TimeSeries) Merge(o *TimeSeries) error {
	if o == nil {
		return nil
	}
	if o.width != ts.width {
		return fmt.Errorf("metrics: merging time series with width %g vs %g", ts.width, o.width)
	}
	if len(o.sums) != len(ts.sums) {
		return fmt.Errorf("metrics: merging time series with %d vs %d buckets", len(ts.sums), len(o.sums))
	}
	for i := range o.sums {
		ts.sums[i] += o.sums[i]
		ts.counts[i] += o.counts[i]
	}
	return nil
}

// MarshalJSON renders the series as its bucket width plus [sum, count]
// pairs in bucket order.
func (ts *TimeSeries) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"width_s":%g,"buckets":[`, ts.width)
	for i := range ts.sums {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `[%g,%d]`, ts.sums[i], ts.counts[i])
	}
	b.WriteString("]}")
	return []byte(b.String()), nil
}
