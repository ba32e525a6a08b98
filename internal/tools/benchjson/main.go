// Command benchjson converts `go test -bench` text output on stdin
// into the canonical BENCH_*.json document CI archives, so the bench
// trajectory accumulates in one machine-readable shape instead of raw
// log text:
//
//	go test -bench 'X|Y' -benchtime=1x -run '^$' . | go run ./internal/tools/benchjson > BENCH_micro.json
//
// Every benchmark line becomes one entry: iterations, ns/op, B/op,
// allocs/op when present, and every custom b.ReportMetric unit under
// "metrics". Environment lines (goos/goarch/pkg/cpu) are carried in the
// header. Exit is nonzero when no benchmark lines were found, so a CI
// step cannot silently archive an empty run.
//
// Headline quantities additionally land under "summary" with STABLE
// names (atlas_incremental_events_per_s, serve_read_p99_ms, …) so
// trend tooling keys on fixed strings instead of parsing benchmark
// names. -serve <path> merges a `stamp run serve-load -json` result
// into the same summary.
//
// When the input holds a BenchmarkAtlasIncremental traced64 or prov
// sample, benchjson also gates tracing and provenance overhead: after
// writing the document it exits 1 unless the incremental, traced64 and
// prov arms are all present and both trace_replay_overhead_ratio and
// prov_overhead_ratio are at most maxOverhead. Each ratio is the median
// over rounds of one round's arm over its incremental sample, so the
// input must hold the arms interleaved, one sample per arm per round
// (one `-count=1` run of the test binary per round: with `-count=N`,
// go test takes all N samples of one arm before the next).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// SchemaVersion pins the document shape.
const SchemaVersion = 1

// maxOverhead bounds the traced64/incremental and prov/incremental
// ratios: 1-in-64 trace sampling and journaling every route change must
// each cost under 5% of an applied event.
const maxOverhead = 1.05

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the canonical output document.
type Doc struct {
	SchemaVersion int         `json:"schema_version"`
	Source        string      `json:"source"`
	Goos          string      `json:"goos,omitempty"`
	Goarch        string      `json:"goarch,omitempty"`
	Pkg           string      `json:"pkg,omitempty"`
	CPU           string      `json:"cpu,omitempty"`
	Benchmarks    []Benchmark `json:"benchmarks"`
	// Summary carries headline quantities under stable names, so trend
	// dashboards key on fixed strings across benchmark renames.
	Summary map[string]float64 `json:"summary,omitempty"`
}

func main() {
	servePath := flag.String("serve", "", "merge a `stamp run serve-load -json` result file into the summary")
	steerPath := flag.String("steer", "", "merge a `stamp run steer-latency -json` result file into the summary")
	flag.Parse()
	doc, err := Parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	Summarize(doc)
	if *servePath != "" {
		raw, err := os.ReadFile(*servePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := MergeServe(doc, raw); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *steerPath != "" {
		raw, err := os.ReadFile(*steerPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := MergeSteer(doc, raw); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := Gate(os.Stderr, doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Gate checks the overhead ratios Summarize lifted against maxOverhead,
// writing each to w. An input with neither a traced64 nor a prov sample
// is not gated; one with either must hold all three arms.
func Gate(w io.Writer, doc *Doc) error {
	_, traced := doc.Summary["atlas_traced64_ns_per_event"]
	_, prov := doc.Summary["atlas_prov_ns_per_event"]
	if !traced && !prov {
		return nil
	}
	for _, name := range []string{"trace_replay_overhead_ratio", "prov_overhead_ratio"} {
		r, ok := doc.Summary[name]
		if !ok {
			return fmt.Errorf("%s missing: the input lacks an incremental, traced64 or prov arm", name)
		}
		fmt.Fprintf(w, "%s: %.4f (bound %g)\n", name, r, maxOverhead)
		if !(r <= maxOverhead) {
			return fmt.Errorf("%s %.4f exceeds %g", name, r, maxOverhead)
		}
	}
	return nil
}

// medianRatio pairs the k-th sample of arm with the k-th of base, in
// input order, and returns the median of arm/base over the pairs: with
// one sample per arm per round, both samples of a pair ran in the same
// round, so a host that slows for a while slows both.
func medianRatio(base, arm []float64) (float64, bool) {
	n := min(len(base), len(arm))
	if n == 0 {
		return 0, false
	}
	rs := make([]float64, n)
	for k := range rs {
		rs[k] = arm[k] / base[k]
	}
	slices.Sort(rs)
	if n%2 == 1 {
		return rs[n/2], true
	}
	return (rs[n/2-1] + rs[n/2]) / 2, true
}

// Summarize lifts headline quantities from known benchmarks into the
// stable-name summary. Missing benchmarks simply contribute nothing.
func Summarize(doc *Doc) {
	set := func(name string, v float64) {
		if doc.Summary == nil {
			doc.Summary = make(map[string]float64)
		}
		doc.Summary[name] = v
	}
	var incNs, scratchNs float64
	// Every incremental, traced and journaled sample, in input order.
	var incs, traceds, provs []float64
	for _, b := range doc.Benchmarks {
		// Strip the -<GOMAXPROCS> suffix go test appends.
		name := b.Name
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		switch name {
		case "BenchmarkAtlasIncremental/incremental":
			incNs = b.NsPerOp
			incs = append(incs, b.NsPerOp)
			set("atlas_incremental_ns_per_event", b.NsPerOp)
			if v, ok := b.Metrics["events/s"]; ok {
				set("atlas_incremental_events_per_s", v)
			}
			if b.AllocsPerOp != nil {
				set("atlas_incremental_allocs_per_event", *b.AllocsPerOp)
			}
		case "BenchmarkAtlasIncremental/traced64":
			traceds = append(traceds, b.NsPerOp)
			set("atlas_traced64_ns_per_event", b.NsPerOp)
			if b.AllocsPerOp != nil {
				set("atlas_traced64_allocs_per_event", *b.AllocsPerOp)
			}
		case "BenchmarkAtlasIncremental/prov":
			provs = append(provs, b.NsPerOp)
			set("atlas_prov_ns_per_event", b.NsPerOp)
			if b.AllocsPerOp != nil {
				set("atlas_prov_allocs_per_event", *b.AllocsPerOp)
			}
		case "BenchmarkAtlasIncremental/scratch":
			scratchNs = b.NsPerOp
			set("atlas_scratch_ns_per_event", b.NsPerOp)
		case "BenchmarkSteerDecision":
			if v, ok := b.Metrics["decisions/s"]; ok {
				set("steer_switch_decisions_per_s", v)
			}
			if b.AllocsPerOp != nil {
				set("steer_decision_allocs_per_op", *b.AllocsPerOp)
			}
		case "BenchmarkProvWhy":
			if v, ok := b.Metrics["queries/s"]; ok {
				set("why_queries_per_s", v)
			}
		case "BenchmarkProvWhyAfterNote":
			if v, ok := b.Metrics["queries/s"]; ok {
				set("why_after_note_queries_per_s", v)
			}
		}
	}
	if incNs > 0 && scratchNs > 0 {
		set("atlas_scratch_over_incremental", scratchNs/incNs)
	}
	// The tracing tax at deployment sampling (1-in-64) and the
	// provenance-journal tax with a journal attached to every shard: CI
	// gates both below maxOverhead.
	if r, ok := medianRatio(incs, traceds); ok {
		set("trace_replay_overhead_ratio", r)
	}
	if r, ok := medianRatio(incs, provs); ok {
		set("prov_overhead_ratio", r)
	}
}

// MergeServe folds a serve-load lab result (the `stamp run serve-load
// -json` envelope) into the summary under stable serve_* names.
func MergeServe(doc *Doc, raw []byte) error {
	var envelope struct {
		Experiment string `json:"experiment"`
		Data       struct {
			Readers        float64 `json:"readers"`
			ReadsPerS      float64 `json:"reads_per_s"`
			ReadP50Ms      float64 `json:"read_p50_ms"`
			ReadP99Ms      float64 `json:"read_p99_ms"`
			ScrapeP99Ms    float64 `json:"scrape_p99_ms"`
			ScrapeBytes    float64 `json:"scrape_bytes"`
			EventsStreamed float64 `json:"events_streamed"`
		} `json:"data"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		return fmt.Errorf("serve result: %w", err)
	}
	if envelope.Experiment != "serve-load" {
		return fmt.Errorf("serve result: experiment %q, want serve-load", envelope.Experiment)
	}
	if doc.Summary == nil {
		doc.Summary = make(map[string]float64)
	}
	d := envelope.Data
	doc.Summary["serve_readers"] = d.Readers
	doc.Summary["serve_reads_per_s"] = d.ReadsPerS
	doc.Summary["serve_read_p50_ms"] = d.ReadP50Ms
	doc.Summary["serve_read_p99_ms"] = d.ReadP99Ms
	doc.Summary["serve_scrape_p99_ms"] = d.ScrapeP99Ms
	doc.Summary["serve_scrape_bytes"] = d.ScrapeBytes
	doc.Summary["serve_events_streamed"] = d.EventsStreamed
	return nil
}

// MergeSteer folds a steer-grid lab result (the `stamp run
// steer-latency -json` / `stamp run steer-loss -json` envelope) into
// the summary under stable steer_* names. The headline is
// steer_vs_locked_latency_ratio: STAMP-steer user latency over
// color-locked STAMP on the same workload (< 1 means steering wins).
func MergeSteer(doc *Doc, raw []byte) error {
	var envelope struct {
		Experiment string `json:"experiment"`
		Data       struct {
			SteerMs  float64 `json:"steer_user_latency_ms"`
			LockedMs float64 `json:"locked_user_latency_ms"`
			Ratio    float64 `json:"steer_vs_locked_latency_ratio"`
			Arms     []struct {
				Protocol string `json:"protocol"`
				Switches struct {
					Sum float64 `json:"Sum"`
				} `json:"steer_switches"`
			} `json:"arms"`
		} `json:"data"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		return fmt.Errorf("steer result: %w", err)
	}
	if !strings.HasPrefix(envelope.Experiment, "steer-") {
		return fmt.Errorf("steer result: experiment %q, want steer-*", envelope.Experiment)
	}
	if doc.Summary == nil {
		doc.Summary = make(map[string]float64)
	}
	d := envelope.Data
	doc.Summary["steer_user_latency_ms"] = d.SteerMs
	doc.Summary["locked_user_latency_ms"] = d.LockedMs
	doc.Summary["steer_vs_locked_latency_ratio"] = d.Ratio
	for _, arm := range d.Arms {
		// Arms carry the paper's figure labels ("STAMP-steer"), not the
		// CLI spellings.
		if arm.Protocol == "STAMP-steer" {
			doc.Summary["steer_switches_total"] = arm.Switches.Sum
		}
	}
	return nil
}

// Parse consumes `go test -bench` output line by line.
func Parse(sc *bufio.Scanner) (*Doc, error) {
	doc := &Doc{SchemaVersion: SchemaVersion, Source: "go test -bench"}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	return doc, nil
}

// parseLine parses one "BenchmarkName-8  20  123 ns/op  4.5 unit ..."
// line: a name, an iteration count, then (value, unit) pairs.
func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value %q in %q: %w", fields[i], line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			v := v
			b.BytesPerOp = &v
		case "allocs/op":
			v := v
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}
