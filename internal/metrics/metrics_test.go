package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0.5); q != 30 {
		t.Errorf("median = %v, want 30", q)
	}
	if q := c.Quantile(0); q != 10 {
		t.Errorf("q0 = %v, want 10", q)
	}
	if q := c.Quantile(1); q != 50 {
		t.Errorf("q1 = %v, want 50", q)
	}
	empty := NewCDF(nil)
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestCDFMeanAndFracAbove(t *testing.T) {
	c := NewCDF([]float64{0, 1})
	if c.Mean() != 0.5 {
		t.Errorf("mean = %v", c.Mean())
	}
	if c.FracAbove(0.5) != 0.5 {
		t.Errorf("FracAbove(0.5) = %v", c.FracAbove(0.5))
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[4][0] != 5 || pts[4][1] != 1 {
		t.Errorf("last point = %v, want (5, 1)", pts[4])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] {
			t.Error("points not monotone in value")
		}
	}
	if NewCDF(nil).Points(3) != nil {
		t.Error("empty CDF should yield nil points")
	}
}

// TestCDFAtMonotoneProperty: At is monotone non-decreasing and bounded.
func TestCDFAtMonotoneProperty(t *testing.T) {
	f := func(samples []float64, probes []float64) bool {
		for _, s := range samples {
			if math.IsNaN(s) {
				return true // skip NaN inputs
			}
		}
		c := NewCDF(samples)
		sort.Float64s(probes)
		last := 0.0
		for _, x := range probes {
			if math.IsNaN(x) {
				continue
			}
			v := c.At(x)
			if v < last-1e-12 || v < 0 || v > 1 {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestMeanStddev(t *testing.T) {
	if m := Mean([]float64{2, 4, 6}); m != 4 {
		t.Errorf("mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of nothing should be NaN")
	}
	if s := Stddev([]float64{2, 4, 6}); math.Abs(s-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", s)
	}
	if Stddev([]float64{5}) != 0 {
		t.Error("stddev of singleton should be 0")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("a-much-longer-name", "22", "dropped-extra-cell")
	tb.AddRowf("from\t%d", 33)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header, separator, 3 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.Contains(out, "a-much-longer-name") {
		t.Error("long cell lost")
	}
	if strings.Contains(out, "dropped-extra-cell") {
		t.Error("extra cell not dropped")
	}
	if !strings.Contains(lines[4], "33") {
		t.Errorf("AddRowf row missing: %q", lines[4])
	}
}

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// AddRowf appends a row built from formatted values.
func (t *Table) AddRowf(format string, args ...any) {
	t.AddRow(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}
