// Package obs is the repository's observability core: a dependency-free
// metric registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text-format exposition, and a bounded structured event log
// with blocking tail reads for live streaming.
//
// The design constraint is the hot-loop discipline the atlas engine
// already lives under: every mutation (Counter.Inc, Gauge.Set,
// Histogram.Observe) is a handful of atomic operations on memory
// preallocated at registration time — no locks, no maps, no allocation —
// so instrumenting a 0 allocs/op convergence loop does not break its
// gate (pinned by TestMetricOpsAllocs and the atlas-side
// TestInstrumentedApplyEventAllocs). All structural work (name
// validation, label children, sorting) happens at registration or
// exposition time, off the hot path.
//
// Metric naming convention (see DESIGN.md): stamp_<subsystem>_<quantity>
// with Prometheus unit suffixes — `_total` for counters, `_seconds` for
// time histograms, bare names for gauges.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotonic: negative deltas are a programming
// error and are dropped rather than corrupting the series.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative deltas allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is lock-free and allocation-free; bucket counts
// are exposed cumulatively in the Prometheus exposition.
type Histogram struct {
	bounds []float64       // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default bucket set for request-latency
// histograms in seconds: 0.5 ms .. ~8 s.
func LatencyBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8}
}

// RoundsBuckets is the default bucket set for convergence-round
// histograms.
func RoundsBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
}

// kind is the metric family type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// child is one labeled series of a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one registered metric name: its metadata plus every labeled
// child series.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	bounds     []float64 // histogram families only
	les        []string  // bounds formatted as `le` label values, once

	mu       sync.Mutex
	children []*child
	index    map[string]*child
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration panics on invalid or duplicate names
// (programming errors); all mutation paths after registration are
// lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family

	collMu     sync.Mutex
	collectors []func()
}

// OnScrape registers a collector invoked at the start of every
// WriteText — the hook pull-style metrics (runtime gauges, queue
// depths) use to refresh themselves only when someone is looking.
// Collectors must be fast and must not call WriteText.
func (r *Registry) OnScrape(f func()) {
	r.collMu.Lock()
	r.collectors = append(r.collectors, f)
	r.collMu.Unlock()
}

// collect runs the registered scrape hooks.
func (r *Registry) collect() {
	r.collMu.Lock()
	colls := make([]func(), len(r.collectors))
	copy(colls, r.collectors)
	r.collMu.Unlock()
	for _, f := range colls {
		f()
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on duplicates or malformed names.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	if k == kindHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bucket bounds must ascend", name))
			}
		}
	}
	f := &family{name: name, help: help, kind: k, labelNames: labels, bounds: bounds,
		index: make(map[string]*child)}
	for _, ub := range bounds {
		f.les = append(f.les, formatFloat(ub))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// with returns (creating on first use) the family's child for the label
// values. Children are expected to be resolved once at setup time and
// the returned handle kept; with itself takes a lock.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.index[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.index[key] = c
	f.children = append(f.children, c)
	return c
}

// labelKey encodes label values unambiguously (values may contain any
// byte, so a separator needs an escape).
func labelKey(values []string) string {
	out := make([]byte, 0, 16)
	for _, v := range values {
		for i := 0; i < len(v); i++ {
			if v[i] == 0x00 || v[i] == 0x01 {
				out = append(out, 0x01)
			}
			out = append(out, v[i])
		}
		out = append(out, 0x00)
	}
	return string(out)
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).with(nil).counter
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).with(nil).gauge
}

// Histogram registers an unlabeled histogram over the bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, bounds).with(nil).hist
}

// CounterVec is a counter family with labels; resolve children with
// With at setup time and keep the handles.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).counter }

// snapshotFamilies returns the families sorted by name and each family's
// children sorted by label values — the stable exposition order.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren copies and sorts one family's children by label tuple.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	kids := append([]*child(nil), f.children...)
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		a, b := kids[i].labelValues, kids[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return kids
}
