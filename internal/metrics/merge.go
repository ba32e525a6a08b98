package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Mergeable aggregates for sharded experiment runs. The runner's ordered
// fold feeds observations one at a time (Add/Observe), which already
// yields worker-count-independent aggregates; the Merge methods combine
// *partial* aggregates built independently — per-cell histograms pooled
// across a sweep grid, per-shard CDFs, results of separate runs — where
// re-adding raw observations is no longer possible. Merging counts and
// sums (or sorted sample sets) in a fixed order is deterministic; bucket
// and bound layouts must come from run configuration, never observed
// data, so partial aggregates are structurally compatible.

// Accum is a streaming accumulator for count, sum, min, and max. The zero
// value is an empty accumulator ready for use.
type Accum struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Add absorbs one observation.
func (a *Accum) Add(x float64) {
	if a.Count == 0 || x < a.Min {
		a.Min = x
	}
	if a.Count == 0 || x > a.Max {
		a.Max = x
	}
	a.Count++
	a.Sum += x
}

// Merge absorbs another accumulator.
func (a *Accum) Merge(b Accum) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	a.Min = math.Min(a.Min, b.Min)
	a.Max = math.Max(a.Max, b.Max)
	a.Count += b.Count
	a.Sum += b.Sum
}

// Mean returns Sum/Count (NaN when empty).
func (a Accum) Mean() float64 {
	if a.Count == 0 {
		return math.NaN()
	}
	return a.Sum / float64(a.Count)
}

// Histogram counts observations in fixed buckets. Bucket i covers
// (bounds[i-1], bounds[i]] with bounds[-1] = -Inf; one overflow bucket
// covers (bounds[last], +Inf). Two histograms merge iff their bounds are
// identical, so shards must build buckets from run configuration, never
// from observed data.
type Histogram struct {
	bounds []float64
	counts []int64
	total  int64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds.
func NewHistogram(bounds ...float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram bounds not increasing at %d", i)
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}, nil
}

// ExpBuckets returns k upper bounds start, start*factor, start*factor²…
// (e.g. ExpBuckets(1, 2, 12) covers 1..2048 in powers of two).
func ExpBuckets(start, factor float64, k int) []float64 {
	bounds := make([]float64, 0, k)
	v := start
	for i := 0; i < k; i++ {
		bounds = append(bounds, v)
		v *= factor
	}
	return bounds
}

// Observe counts one observation.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i]++
	h.total++
}

// Total returns the observation count.
func (h *Histogram) Total() int64 { return h.total }

// Merge absorbs another histogram with identical bounds.
func (h *Histogram) Merge(o *Histogram) error {
	if len(o.bounds) != len(h.bounds) {
		return fmt.Errorf("metrics: merging histograms with %d vs %d buckets", len(h.bounds), len(o.bounds))
	}
	for i, b := range o.bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("metrics: merging histograms with different bounds at %d", i)
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	return nil
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (NaN when empty, +Inf when it lands in the overflow bucket).
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// MarshalJSON renders the histogram as its total plus (upperBound, count)
// pairs; the overflow bucket's bound appears as the string "+Inf" since
// JSON has no infinity literal.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	out := fmt.Sprintf(`{"total":%d,"buckets":[`, h.total)
	for i, c := range h.counts {
		if i > 0 {
			out += ","
		}
		if i < len(h.bounds) {
			out += fmt.Sprintf(`[%g,%d]`, h.bounds[i], c)
		} else {
			out += fmt.Sprintf(`["+Inf",%d]`, c)
		}
	}
	return []byte(out + "]}"), nil
}

// MarshalJSON renders the CDF as its size and up to 20 plot points, the
// same shape the text reports print.
func (c *CDF) MarshalJSON() ([]byte, error) {
	pts := c.Points(20)
	out := fmt.Sprintf(`{"n":%d,"points":[`, c.Len())
	for i, p := range pts {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf(`[%g,%g]`, p[0], p[1])
	}
	return []byte(out + "]}"), nil
}
