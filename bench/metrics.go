package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// metricDef is one named metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; TestBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median a regression may cost; 0 for layer metrics
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one: the driver evaluates
// each (workload, metric) pair, so a metric that only exists on some
// workloads cannot be listed. A "call" is one call into the workload's
// public entry point as its user makes it; README.md says what each
// metric is on each workload and where the bounds come from.
var endToEnd = []metricDef{
	// Inputs ready: topology generate + CSR build (+ serve.New boot on the
	// serve workloads); median over the set-up repetitions of one run.
	{"setup_s", "s", "lower", 0.25},
	// The timed phase only, set-up and verification excluded.
	{"wall_s", "s", "lower", 0.25},
	// Units of work completed per second of the timed phase.
	{"ops_per_s", "1/s", "higher", 0.25},
	// Median latency of one call.
	{"call_p50_ms", "ms", "lower", 0.25},
	// Process CPU (user + system) burnt by the timed phase, so speed bought
	// with spinning workers or extra cores shows.
	{"cpu_s", "s", "lower", 0.25},
	// Heap in use after a collection when the timed phase ends, so state
	// moved into set-up or resident pools shows.
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced run. Every
// workload prints every one; a layer the workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{name: "topology.generate_s", unit: "s", better: "lower"},
	{name: "atlas.csr_build_s", unit: "s", better: "lower"},
	{name: "serve.boot_s", unit: "s", better: "lower"},
	{name: "atlas.init_dest_ms", unit: "ms", better: "lower"},
	{name: "atlas.apply_event_us", unit: "us", better: "lower"},
	{name: "atlas.apply_event_p99_us", unit: "us", better: "lower"},
	{name: "atlas.snapshot_routes_us", unit: "us", better: "lower"},
	{name: "atlas.converge_dest_ms", unit: "ms", better: "lower"},
	{name: "serve.apply_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.apply_p90_ms", unit: "ms", better: "lower"},
	{name: "serve.apply_self_us", unit: "us", better: "lower"},
	{name: "serve.layer_residual_ratio", unit: "ratio", better: "lower"},
	{name: "serve.apply_busy_ratio", unit: "ratio", better: "lower"},
	{name: "serve.apply_due_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.apply_due_p90_ms", unit: "ms", better: "lower"},
	{name: "serve.writer_late_p90_ms", unit: "ms", better: "lower"},
	{name: "runner.fanout_us", unit: "us", better: "lower"},
	{name: "runner.parallel_efficiency", unit: "ratio", better: "higher"},
	{name: "obs.event_append_us", unit: "us", better: "lower"},
	{name: "obs.scrape_us", unit: "us", better: "lower"},
	{name: "obs.scrape_bytes", unit: "count", better: "lower"},
	{name: "serve.handler_point_us", unit: "us", better: "lower"},
	{name: "serve.handler_summary_us", unit: "us", better: "lower"},
	{name: "serve.handler_why_us", unit: "us", better: "lower"},
	{name: "serve.read_p50_us", unit: "us", better: "lower"},
	{name: "serve.read_p99_us", unit: "us", better: "lower"},
	{name: "serve.read_point_p50_us", unit: "us", better: "lower"},
	{name: "serve.read_summary_p50_us", unit: "us", better: "lower"},
	{name: "serve.read_why_p50_us", unit: "us", better: "lower"},
	{name: "serve.read_metrics_p50_us", unit: "us", better: "lower"},
	{name: "serve.http_overhead_us", unit: "us", better: "lower"},
	{name: "prov.chain_us", unit: "us", better: "lower"},
	{name: "prov.appends_per_event", unit: "count", better: "lower"},
	{name: "prov.evictions", unit: "count", better: "lower"},
	{name: "bgp.shard_s", unit: "s", better: "lower"},
	{name: "rbgp_norci.shard_s", unit: "s", better: "lower"},
	{name: "rbgp.shard_s", unit: "s", better: "lower"},
	{name: "core.shard_s", unit: "s", better: "lower"},
	{name: "sim.converge_only_s", unit: "s", better: "lower"},
	{name: "sim.updates_per_s", unit: "1/s", better: "higher"},
	{name: "traffic.sampling_share", unit: "ratio", better: "lower"},
	{name: "traffic.walks_per_s", unit: "1/s", better: "higher"},
	{name: "lab.envelope_encode_ms", unit: "ms", better: "lower"},
	// Exact counts: the same seed must give the same value on every run.
	{name: "atlas.changed_per_event", unit: "count", better: "lower"},
	{name: "atlas.rounds_per_event", unit: "count", better: "lower"},
	{name: "atlas.reroots", unit: "count", better: "lower"},
	{name: "atlas.useful_ratio", unit: "ratio", better: "higher"},
	{name: "atlas.allocs_per_event", unit: "count", better: "lower"},
	{name: "serve.snapshot_fallbacks", unit: "count", better: "lower"},
	{name: "serve.read_errors", unit: "count", better: "lower"},
	{name: "serve.epoch_end", unit: "count", better: "higher"},
	{name: "traffic.lost_packet_ticks", unit: "count", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.root_self_us", unit: "us", better: "lower"},
	{name: "trace.spans_dropped", unit: "count", better: "lower"},
}

// value is one measured metric and the number of samples behind it.
type value struct {
	v float64
	n int
}

// result is what one run of one workload produced.
type result struct {
	workload string
	traced   bool
	ops      int // operations attempted, verification checks included
	failed   int
	failures []string
	m        map[string]value
	// speed scales raw times of the untraced run to nominal host speed
	// (hostspeed.go); phase.stop sets it. The traced run reports raw times.
	speed float64
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, m: map[string]value{}, speed: 1}
}

func (r *result) set(name string, v float64, n int) { r.m[name] = value{v, n} }

// setCalls sets the two metrics derived from the timed phase's calls:
// units of work per second and the median latency, both at nominal host
// speed. callsMs is ascending.
func (r *result) setCalls(work int, wall time.Duration, callsMs []float64) {
	r.set("ops_per_s", float64(work)/(wall.Seconds()*r.speed), work)
	r.set("call_p50_ms", percentile(callsMs, 50)*r.speed, len(callsMs))
}

// setPct sets a layer metric to the q-th percentile of an ascending sample,
// times scale.
func (r *result) setPct(name string, v []float64, q, scale float64) {
	r.set(name, percentile(v, q)*scale, len(v))
}

// check counts one verification step as an attempted operation and, if
// it did not hold, as a failed one.
func (r *result) check(ok bool, format string, args ...any) {
	r.ops++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable table followed by the one-line JSON
// object the driver reads. A metric the workload did not set is an
// error for an end-to-end metric and 0 for a layer one.
func (r *result) print(w io.Writer) error {
	kind := "end-to-end (untraced)"
	if r.traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s — %s\n", r.workload, kind)
	fmt.Fprintf(w, "%-30s %16s %-6s %9s\n", "metric", "value", "unit", "samples")
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Attempted: r.ops, Failed: r.failed, Metrics: map[string]jm{}}
	for _, d := range r.defs() {
		v, ok := r.m[d.name]
		if !ok && !r.traced {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, d.name)
		}
		fmt.Fprintf(w, "%-30s %16.6g %-6s %9d\n", d.name, v.v, d.unit, v.n)
		out.Metrics[d.name] = jm{v.v, d.unit}
	}
	fmt.Fprintf(w, "%-30s %16d\n%-30s %16d\n", "ops", r.ops, "failed_ops", r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	out.Correct = r.failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(line)))
	return err
}
