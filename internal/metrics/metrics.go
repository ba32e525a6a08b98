// Package metrics provides the small statistical and presentation
// utilities shared by the experiment harnesses: empirical CDFs, summary
// statistics, fixed-width table rendering for paper-style output, and
// mergeable aggregates (Accum, Histogram, CDF.Merge) that let sharded
// experiment runs combine per-trial results without losing determinism.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function over float64
// samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]) by nearest-rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Mean(c.sorted) }

// FracAbove returns P(X > x).
func (c *CDF) FracAbove(x float64) float64 { return 1 - c.At(x) }

// Points samples the CDF at k evenly spaced sample ranks, returning
// (value, cumulative probability) pairs suitable for plotting, matching
// the paper's Figure 1 presentation.
func (c *CDF) Points(k int) [][2]float64 {
	if len(c.sorted) == 0 || k <= 0 {
		return nil
	}
	pts := make([][2]float64, 0, k)
	for i := 1; i <= k; i++ {
		rank := int(float64(i)/float64(k)*float64(len(c.sorted))) - 1
		if rank < 0 {
			rank = 0
		}
		pts = append(pts, [2]float64{c.sorted[rank], float64(i) / float64(k)})
	}
	return pts
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table renders rows of cells in aligned fixed-width columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}
