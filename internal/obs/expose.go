package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, children by label tuple,
// HELP/TYPE comment lines, escaped label values, and cumulative
// histogram buckets ending in +Inf plus _sum and _count series. The
// output is deterministic for a fixed set of values, which is what the
// golden-file test pins.
func (r *Registry) WriteText(w io.Writer) error {
	r.collect()
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, c := range f.sortedChildren() {
			switch f.kind {
			case kindCounter:
				writeSeries(bw, f.name, f.labelNames, c.labelValues, "", "", formatInt(c.counter.Value()))
			case kindGauge:
				writeSeries(bw, f.name, f.labelNames, c.labelValues, "", "", formatInt(c.gauge.Value()))
			case kindHistogram:
				writeHistogram(bw, f, c)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram child: cumulative buckets, sum,
// count. Bucket counts are read low-to-high after the total, so a
// concurrent Observe can never make the exposition non-cumulative by
// more than it makes _count lag — scrapes are self-consistent enough
// for monotonicity checks.
func writeHistogram(bw *bufio.Writer, f *family, c *child) {
	h := c.hist
	var cum uint64
	for i, le := range f.les {
		cum += h.counts[i].Load()
		writeSeries(bw, f.name+"_bucket", f.labelNames, c.labelValues, "le", le, formatUint(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSeries(bw, f.name+"_bucket", f.labelNames, c.labelValues, "le", "+Inf", formatUint(cum))
	writeSeries(bw, f.name+"_sum", f.labelNames, c.labelValues, "", "", formatFloat(h.Sum()))
	writeSeries(bw, f.name+"_count", f.labelNames, c.labelValues, "", "", formatUint(cum))
}

// writeSeries renders one sample line, appending an extra label (le for
// histogram buckets) when extraName is non-empty.
func writeSeries(bw *bufio.Writer, name string, labelNames, labelValues []string, extraName, extraValue, value string) {
	bw.WriteString(name)
	if len(labelNames) > 0 || extraName != "" {
		bw.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(ln)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(labelValues[i]))
			bw.WriteByte('"')
		}
		if extraName != "" {
			if len(labelNames) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extraName)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(extraValue))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatInt(v int64) string   { return strconv.FormatInt(v, 10) }
func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline for HELP lines.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeLabel escapes backslash, double-quote, and newline for label
// values.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Handler returns an http.Handler serving the registry's text
// exposition — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
