package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAccumMergeEqualsSerial: merging sharded accumulators must agree
// with one serial pass — exactly for count/min/max, and up to float
// summation order for Sum. Merging the same shards in the same order must
// be bit-identical (that, plus the runner's ordered fold, is what makes
// reports byte-identical across worker counts).
func TestAccumMergeEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	var serial Accum
	for _, x := range xs {
		serial.Add(x)
	}
	shardFold := func() Accum {
		var merged Accum
		for start := 0; start < len(xs); start += 61 {
			end := min(start+61, len(xs))
			var shard Accum
			for _, x := range xs[start:end] {
				shard.Add(x)
			}
			merged.Merge(shard)
		}
		return merged
	}
	merged := shardFold()
	if merged.Count != serial.Count || merged.Min != serial.Min || merged.Max != serial.Max {
		t.Fatalf("merged %+v != serial %+v", merged, serial)
	}
	if math.Abs(merged.Sum-serial.Sum) > 1e-9 {
		t.Fatalf("merged sum %v too far from serial %v", merged.Sum, serial.Sum)
	}
	if again := shardFold(); again != merged {
		t.Fatalf("same shard partition gave different results: %+v vs %+v", again, merged)
	}
	if math.Abs(serial.Mean()-Mean(xs)) > 1e-12 {
		t.Errorf("Mean() disagrees with metrics.Mean: %v vs %v", serial.Mean(), Mean(xs))
	}
}

// TestAccumEmpty: empty accumulators merge as identity and report NaN
// mean.
func TestAccumEmpty(t *testing.T) {
	var a, b Accum
	a.Merge(b)
	if a.Count != 0 || !math.IsNaN(a.Mean()) {
		t.Fatalf("empty merge mutated accumulator: %+v", a)
	}
	b.Add(4)
	a.Merge(b)
	if a.Count != 1 || a.Min != 4 || a.Max != 4 {
		t.Fatalf("merge into empty lost state: %+v", a)
	}
}

// TestHistogramMergeEqualsSerial: sharded histograms with identical
// bounds must merge to the serial histogram.
func TestHistogramMergeEqualsSerial(t *testing.T) {
	bounds := ExpBuckets(1, 2, 10)
	serial, err := NewHistogram(bounds...)
	if err != nil {
		t.Fatal(err)
	}
	merged, _ := NewHistogram(bounds...)
	rng := rand.New(rand.NewSource(11))
	var shard *Histogram
	for i := 0; i < 2000; i++ {
		if i%97 == 0 {
			if shard != nil {
				if err := merged.Merge(shard); err != nil {
					t.Fatal(err)
				}
			}
			shard, _ = NewHistogram(bounds...)
		}
		x := math.Exp(rng.Float64() * 8)
		serial.Observe(x)
		shard.Observe(x)
	}
	if err := merged.Merge(shard); err != nil {
		t.Fatal(err)
	}
	if merged.Total() != serial.Total() {
		t.Fatalf("totals differ: %d vs %d", merged.Total(), serial.Total())
	}
	sb, mb := serial.Buckets(), merged.Buckets()
	for i := range sb {
		if sb[i] != mb[i] {
			t.Fatalf("bucket %d differs: %v vs %v", i, mb[i], sb[i])
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if serial.Quantile(q) != merged.Quantile(q) {
			t.Errorf("quantile %v differs", q)
		}
	}
}

// TestHistogramValidation covers bound checking on build and merge.
func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram(1, 1); err == nil {
		t.Error("non-increasing bounds accepted")
	}
	a, _ := NewHistogram(1, 2)
	b, _ := NewHistogram(1, 3)
	if err := a.Merge(b); err == nil {
		t.Error("merge of mismatched bounds accepted")
	}
	c, _ := NewHistogram(1, 2, 3)
	if err := a.Merge(c); err == nil {
		t.Error("merge of different bucket counts accepted")
	}
}

// TestHistogramEdges pins bucket boundary semantics: bucket i is
// (bounds[i-1], bounds[i]], with an overflow bucket above the last bound.
func TestHistogramEdges(t *testing.T) {
	h, _ := NewHistogram(1, 2)
	h.Observe(1)   // (−Inf,1]
	h.Observe(1.5) // (1,2]
	h.Observe(2)   // (1,2]
	h.Observe(9)   // overflow
	want := [][2]float64{{1, 1}, {2, 2}, {math.Inf(1), 1}}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if f := h.FracLE(2); f != 0.75 {
		t.Errorf("FracLE(2) = %v, want 0.75", f)
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", q)
	}
	empty, _ := NewHistogram(1)
	if !math.IsNaN(empty.Quantile(0.5)) || empty.FracLE(1) != 0 {
		t.Error("empty histogram quantile/frac not NaN/0")
	}
}

// TestCDFMerge: merging CDFs must equal one CDF over the concatenated
// samples, and stay sorted.
func TestCDFMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all []float64
	whole := NewCDF(nil)
	for shard := 0; shard < 5; shard++ {
		xs := make([]float64, 40+shard)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		all = append(all, xs...)
		whole.Merge(NewCDF(xs))
	}
	ref := NewCDF(all)
	if whole.Len() != ref.Len() {
		t.Fatalf("merged length %d != %d", whole.Len(), ref.Len())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if whole.Quantile(q) != ref.Quantile(q) {
			t.Errorf("quantile %v: %v != %v", q, whole.Quantile(q), ref.Quantile(q))
		}
	}
	whole.Merge(nil) // must be a no-op
	if whole.Len() != ref.Len() {
		t.Error("nil merge changed the CDF")
	}
}

// TestCDFMarshalJSON: the JSON form must be valid and carry the sample
// count.
func TestCDFMarshalJSON(t *testing.T) {
	c := NewCDF([]float64{0.1, 0.5, 0.9})
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		N      int          `json:"n"`
		Points [][2]float64 `json:"points"`
	}
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatalf("invalid JSON %s: %v", raw, err)
	}
	if dec.N != 3 || len(dec.Points) == 0 {
		t.Fatalf("unexpected JSON payload: %s", raw)
	}
}

// Buckets returns (upperBound, count) pairs including the overflow bucket
// as (+Inf, count).
func (h *Histogram) Buckets() [][2]float64 {
	out := make([][2]float64, 0, len(h.counts))
	for i, c := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out = append(out, [2]float64{ub, float64(c)})
	}
	return out
}

// FracLE returns the fraction of observations in buckets whose upper
// bound is <= x (0 when empty).
func (h *Histogram) FracLE(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	var n int64
	for i, b := range h.bounds {
		if b > x {
			break
		}
		n += h.counts[i]
	}
	return float64(n) / float64(h.total)
}

// Merge absorbs another CDF's samples, preserving sorted order. The
// result equals NewCDF over the concatenated sample sets.
func (c *CDF) Merge(o *CDF) {
	if o == nil || len(o.sorted) == 0 {
		return
	}
	merged := make([]float64, 0, len(c.sorted)+len(o.sorted))
	i, j := 0, 0
	for i < len(c.sorted) && j < len(o.sorted) {
		if c.sorted[i] <= o.sorted[j] {
			merged = append(merged, c.sorted[i])
			i++
		} else {
			merged = append(merged, o.sorted[j])
			j++
		}
	}
	merged = append(merged, c.sorted[i:]...)
	merged = append(merged, o.sorted[j:]...)
	c.sorted = merged
}
