package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func mustTS(t *testing.T, width float64, buckets int) *TimeSeries {
	t.Helper()
	ts, err := NewTimeSeries(width, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTimeSeriesObserve(t *testing.T) {
	ts := mustTS(t, 0.5, 4) // buckets [0,0.5) [0.5,1) [1,1.5) [1.5,2)
	ts.Observe(0.1, 10)
	ts.Observe(0.49, 5)
	ts.Observe(0.5, 2)
	ts.Observe(1.7, 1)
	if got := ts.Sum(0); got != 15 {
		t.Errorf("Sum(0) = %g, want 15", got)
	}
	if got := ts.Count(0); got != 2 {
		t.Errorf("Count(0) = %d, want 2", got)
	}
	if got := ts.Sum(1); got != 2 {
		t.Errorf("Sum(1) = %g, want 2", got)
	}
	if got := ts.Sum(3); got != 1 {
		t.Errorf("Sum(3) = %g, want 1", got)
	}
	if got := ts.Total(); got != 18 {
		t.Errorf("Total = %g, want 18", got)
	}
	if got := ts.TotalCount(); got != 4 {
		t.Errorf("TotalCount = %d, want 4", got)
	}
	if got := ts.Mean(0); got != 7.5 {
		t.Errorf("Mean(0) = %g, want 7.5", got)
	}
	if !math.IsNaN(ts.Mean(2)) {
		t.Errorf("Mean(2) = %g, want NaN (empty)", ts.Mean(2))
	}
	if got := ts.PeakBucket(); got != 0 {
		t.Errorf("PeakBucket = %d, want 0", got)
	}
}

func TestTimeSeriesClamps(t *testing.T) {
	ts := mustTS(t, 1, 3)
	ts.Observe(-5, 1)  // clamps to bucket 0
	ts.Observe(100, 2) // clamps to bucket 2
	if ts.Sum(0) != 1 || ts.Sum(2) != 2 {
		t.Errorf("clamping failed: sums = [%g %g %g]", ts.Sum(0), ts.Sum(1), ts.Sum(2))
	}
}

func TestTimeSeriesLayoutValidation(t *testing.T) {
	if _, err := NewTimeSeries(0, 4); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewTimeSeries(1, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	a := mustTS(t, 1, 4)
	if err := a.Merge(mustTS(t, 2, 4)); err == nil {
		t.Error("width mismatch merged")
	}
	if err := a.Merge(mustTS(t, 1, 5)); err == nil {
		t.Error("bucket-count mismatch merged")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

// tsJSON renders a series for byte-exact comparison.
func tsJSON(t *testing.T, ts *TimeSeries) []byte {
	t.Helper()
	b, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTimeSeriesMergeAssociative: (a ⊕ b) ⊕ c must equal a ⊕ (b ⊕ c)
// byte-for-byte. Observations are integer-valued so float addition is
// exact; the experiment layer's any-worker-count guarantee additionally
// rests on the runner's ordered fold fixing the merge order.
func TestTimeSeriesMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	make3 := func() (a, b, c *TimeSeries) {
		a, b, c = mustTS(t, 0.25, 8), mustTS(t, 0.25, 8), mustTS(t, 0.25, 8)
		for _, ts := range []*TimeSeries{a, b, c} {
			for i := 0; i < 50; i++ {
				ts.Observe(rng.Float64()*2, float64(rng.Intn(1000)))
			}
		}
		return
	}
	a1, b1, c1 := make3()
	rng = rand.New(rand.NewSource(7))
	a2, b2, c2 := make3()

	// left = (a ⊕ b) ⊕ c
	if err := a1.Merge(b1); err != nil {
		t.Fatal(err)
	}
	if err := a1.Merge(c1); err != nil {
		t.Fatal(err)
	}
	// right = a ⊕ (b ⊕ c)
	if err := b2.Merge(c2); err != nil {
		t.Fatal(err)
	}
	if err := a2.Merge(b2); err != nil {
		t.Fatal(err)
	}
	l, r := tsJSON(t, a1), tsJSON(t, a2)
	if !bytes.Equal(l, r) {
		t.Errorf("merge not associative:\n left %s\nright %s", l, r)
	}
}

// TestTimeSeriesMergeMatchesDirect: merging per-shard series must equal
// observing everything into one series.
func TestTimeSeriesMergeMatchesDirect(t *testing.T) {
	direct := mustTS(t, 0.5, 6)
	shards := []*TimeSeries{mustTS(t, 0.5, 6), mustTS(t, 0.5, 6), mustTS(t, 0.5, 6)}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		at, v := rng.Float64()*3, float64(rng.Intn(50))
		direct.Observe(at, v)
		shards[i%3].Observe(at, v)
	}
	merged := mustTS(t, 0.5, 6)
	for _, s := range shards {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < merged.Len(); i++ {
		if merged.Sum(i) != direct.Sum(i) || merged.Count(i) != direct.Count(i) {
			t.Errorf("bucket %d: merged (%g,%d) != direct (%g,%d)",
				i, merged.Sum(i), merged.Count(i), direct.Sum(i), direct.Count(i))
		}
	}
}

func TestTimeSeriesJSON(t *testing.T) {
	ts := mustTS(t, 1, 2)
	ts.Observe(0, 3)
	ts.Observe(1.5, 4)
	want := `{"width_s":1,"buckets":[[3,1],[4,1]]}`
	if got := string(tsJSON(t, ts)); got != want {
		t.Errorf("JSON = %s, want %s", got, want)
	}
}

// TotalCount returns the observation count over all buckets.
func (ts *TimeSeries) TotalCount() int64 {
	var n int64
	for _, c := range ts.counts {
		n += c
	}
	return n
}

// Mean returns bucket i's mean observation (NaN when the bucket is
// empty).
func (ts *TimeSeries) Mean(i int) float64 {
	if ts.counts[i] == 0 {
		return math.NaN()
	}
	return ts.sums[i] / float64(ts.counts[i])
}
