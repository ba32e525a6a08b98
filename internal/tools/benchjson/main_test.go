package main

import (
	"bufio"
	"io"
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: stamp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAtlasConverge/flat         	      20	   9460366 ns/op	        30.00 bgp-rounds	       0 B/op	       0 allocs/op
BenchmarkAtlasConverge/map          	      20	  70267561 ns/op	11295404 B/op	    3558 allocs/op
BenchmarkEmuConvergence-8   	       1	 455000000 ns/op	       452 boot-ms	      4946 sessions
PASS
ok  	stamp	1.892s
`

func TestParse(t *testing.T) {
	doc, err := Parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != SchemaVersion || doc.Goos != "linux" || doc.Pkg != "stamp" {
		t.Fatalf("header = %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	flat := doc.Benchmarks[0]
	if flat.Name != "BenchmarkAtlasConverge/flat" || flat.Iterations != 20 || flat.NsPerOp != 9460366 {
		t.Fatalf("flat = %+v", flat)
	}
	if flat.AllocsPerOp == nil || *flat.AllocsPerOp != 0 {
		t.Fatalf("flat allocs = %v, want 0", flat.AllocsPerOp)
	}
	if flat.Metrics["bgp-rounds"] != 30 {
		t.Fatalf("flat metrics = %v", flat.Metrics)
	}
	emu := doc.Benchmarks[2]
	if emu.Metrics["sessions"] != 4946 || emu.Metrics["boot-ms"] != 452 {
		t.Fatalf("emu metrics = %v", emu.Metrics)
	}
}

const incrementalSample = `goos: linux
pkg: stamp
BenchmarkAtlasIncremental/incremental-8         	    5000	    215000 ns/op	      4651 events/s	       0 allocs/op
BenchmarkAtlasIncremental/traced64-8            	    5000	    219300 ns/op	      4560 events/s	       0 allocs/op
BenchmarkAtlasIncremental/prov-8                	    5000	    221450 ns/op	      4516 events/s	       0 allocs/op
BenchmarkAtlasIncremental/scratch-8             	      20	  52000000 ns/op
PASS
`

func TestSummarizeStableNames(t *testing.T) {
	doc, err := Parse(bufio.NewScanner(strings.NewReader(incrementalSample)))
	if err != nil {
		t.Fatal(err)
	}
	Summarize(doc)
	for name, want := range map[string]float64{
		"atlas_incremental_events_per_s":     4651,
		"atlas_incremental_ns_per_event":     215000,
		"atlas_incremental_allocs_per_event": 0,
		"atlas_traced64_ns_per_event":        219300,
		"atlas_traced64_allocs_per_event":    0,
		"atlas_prov_ns_per_event":            221450,
		"atlas_prov_allocs_per_event":        0,
		"atlas_scratch_ns_per_event":         52000000,
	} {
		if got := doc.Summary[name]; got != want {
			t.Errorf("summary[%s] = %v, want %v", name, got, want)
		}
	}
	if got := doc.Summary["atlas_scratch_over_incremental"]; got < 241 || got > 242 {
		t.Errorf("speedup ratio = %v, want ~241.86", got)
	}
	if got := doc.Summary["trace_replay_overhead_ratio"]; got < 1.01 || got > 1.03 {
		t.Errorf("trace overhead ratio = %v, want ~1.02", got)
	}
	if got := doc.Summary["prov_overhead_ratio"]; got < 1.02 || got > 1.04 {
		t.Errorf("prov overhead ratio = %v, want ~1.03", got)
	}
}

const provWhySample = `goos: linux
pkg: stamp/internal/prov
BenchmarkProvWhy-8   	  300000	      3800 ns/op	    263000 queries/s	       0 B/op	       0 allocs/op
PASS
`

func TestSummarizeProvWhy(t *testing.T) {
	doc, err := Parse(bufio.NewScanner(strings.NewReader(provWhySample)))
	if err != nil {
		t.Fatal(err)
	}
	Summarize(doc)
	if got := doc.Summary["why_queries_per_s"]; got != 263000 {
		t.Errorf("why_queries_per_s = %v, want 263000", got)
	}
	// Without the incremental baseline no ratio appears: the gate step
	// must notice a missing arm rather than divide by zero.
	if _, ok := doc.Summary["prov_overhead_ratio"]; ok {
		t.Error("prov_overhead_ratio set without an incremental baseline")
	}
}

const provWhyAfterNoteSample = `goos: linux
pkg: stamp/internal/prov
BenchmarkProvWhy-2            	  357548	      3533 ns/op	    283066 queries/s	    3024 B/op	       6 allocs/op
BenchmarkProvWhyAfterNote-2   	   39626	     30511 ns/op	     32775 queries/s	    3024 B/op	       6 allocs/op
PASS
`

func TestSummarizeProvWhyAfterNote(t *testing.T) {
	doc, err := Parse(bufio.NewScanner(strings.NewReader(provWhyAfterNoteSample)))
	if err != nil {
		t.Fatal(err)
	}
	Summarize(doc)
	// The rebuild-worst-case arm lands under its own key and leaves the
	// plain chain walk's key to BenchmarkProvWhy.
	if got := doc.Summary["why_after_note_queries_per_s"]; got != 32775 {
		t.Errorf("why_after_note_queries_per_s = %v, want 32775", got)
	}
	if got := doc.Summary["why_queries_per_s"]; got != 283066 {
		t.Errorf("why_queries_per_s = %v, want 283066", got)
	}
}

func TestMergeServe(t *testing.T) {
	doc := &Doc{SchemaVersion: SchemaVersion}
	serveResult := `{
	  "experiment": "serve-load",
	  "data": {"readers": 16, "reads_per_s": 1200.5, "read_p50_ms": 0.4,
	           "read_p99_ms": 2.25, "scrape_p99_ms": 1.5, "scrape_bytes": 9000,
	           "events_streamed": 40}
	}`
	if err := MergeServe(doc, []byte(serveResult)); err != nil {
		t.Fatal(err)
	}
	if doc.Summary["serve_read_p99_ms"] != 2.25 || doc.Summary["serve_reads_per_s"] != 1200.5 ||
		doc.Summary["serve_readers"] != 16 {
		t.Errorf("summary = %v", doc.Summary)
	}
	// Wrong experiment must be rejected, not silently merged.
	if err := MergeServe(doc, []byte(`{"experiment":"figure2","data":{}}`)); err == nil {
		t.Error("figure2 result merged as serve-load")
	}
	if err := MergeServe(doc, []byte(`{not json`)); err == nil {
		t.Error("malformed result merged")
	}
}

const steerSample = `goos: linux
pkg: stamp/internal/steer
BenchmarkSteerDecision-8   	   50000	     24600 ns/op	 166000000 decisions/s	       0 B/op	       0 allocs/op
PASS
`

func TestSummarizeSteerDecision(t *testing.T) {
	doc, err := Parse(bufio.NewScanner(strings.NewReader(steerSample)))
	if err != nil {
		t.Fatal(err)
	}
	Summarize(doc)
	if got := doc.Summary["steer_switch_decisions_per_s"]; got != 166000000 {
		t.Errorf("steer_switch_decisions_per_s = %v, want 166000000", got)
	}
	if got := doc.Summary["steer_decision_allocs_per_op"]; got != 0 {
		t.Errorf("steer_decision_allocs_per_op = %v, want 0", got)
	}
}

func TestMergeSteer(t *testing.T) {
	doc := &Doc{SchemaVersion: SchemaVersion}
	steerResult := `{
	  "experiment": "steer-latency",
	  "data": {"steer_user_latency_ms": 38.98, "locked_user_latency_ms": 62.98,
	           "steer_vs_locked_latency_ratio": 0.6189,
	           "arms": [
	             {"protocol": "STAMP", "steer_switches": {"Count": 0, "Sum": 0}},
	             {"protocol": "STAMP-steer", "steer_switches": {"Count": 2, "Sum": 105}}
	           ]}
	}`
	if err := MergeSteer(doc, []byte(steerResult)); err != nil {
		t.Fatal(err)
	}
	if doc.Summary["steer_vs_locked_latency_ratio"] != 0.6189 ||
		doc.Summary["steer_user_latency_ms"] != 38.98 ||
		doc.Summary["locked_user_latency_ms"] != 62.98 ||
		doc.Summary["steer_switches_total"] != 105 {
		t.Errorf("summary = %v", doc.Summary)
	}
	// steer-loss is the same grid under a different preset — accepted.
	if err := MergeSteer(&Doc{}, []byte(`{"experiment":"steer-loss","data":{}}`)); err != nil {
		t.Errorf("steer-loss rejected: %v", err)
	}
	// Wrong experiment must be rejected, not silently merged.
	if err := MergeSteer(doc, []byte(`{"experiment":"figure2","data":{}}`)); err == nil {
		t.Error("figure2 result merged as steer grid")
	}
	if err := MergeSteer(doc, []byte(`{not json`)); err == nil {
		t.Error("malformed result merged")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(bufio.NewScanner(strings.NewReader("PASS\nok x 1s\n"))); err == nil {
		t.Fatal("empty bench output parsed without error")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(bufio.NewScanner(strings.NewReader("BenchmarkX notanumber ns/op\n"))); err == nil {
		t.Fatal("malformed line parsed without error")
	}
}

// Three rounds of the interleaved incremental, traced and journaled
// arms, one sample each per round; the host ran the second round at
// half speed, and the third round's traced sample met a stall.
const roundsSample = `pkg: stamp
BenchmarkAtlasIncremental/incremental-2   1000   1000 ns/op
BenchmarkAtlasIncremental/traced64-2      1000   1020 ns/op
BenchmarkAtlasIncremental/prov-2          1000   1030 ns/op
BenchmarkAtlasIncremental/incremental-2   1000   2000 ns/op
BenchmarkAtlasIncremental/traced64-2      1000   2040 ns/op
BenchmarkAtlasIncremental/prov-2          1000   2100 ns/op
BenchmarkAtlasIncremental/incremental-2   1000   1500 ns/op
BenchmarkAtlasIncremental/traced64-2      1000   1800 ns/op
BenchmarkAtlasIncremental/prov-2          1000   1530 ns/op
`

// TestOverheadIsMedianOfRoundRatios: each overhead ratio pairs the
// arms' samples round by round and takes the median, so neither a slow
// round nor one stalled sample moves it.
func TestOverheadIsMedianOfRoundRatios(t *testing.T) {
	doc, err := Parse(bufio.NewScanner(strings.NewReader(roundsSample)))
	if err != nil {
		t.Fatal(err)
	}
	Summarize(doc)
	for name, want := range map[string]float64{
		"trace_replay_overhead_ratio": 1.02, // of 1.02, 1.02, 1.2
		"prov_overhead_ratio":         1.03, // of 1.03, 1.05, 1.02
	} {
		if got := doc.Summary[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if err := Gate(io.Discard, doc); err != nil {
		t.Errorf("gate: %v", err)
	}
}

// TestGate: an input with a traced64 or prov sample fails unless all
// three arms are there and both ratios are at most maxOverhead; an
// input with neither is not gated.
func TestGate(t *testing.T) {
	summarize := func(in string) *Doc {
		t.Helper()
		doc, err := Parse(bufio.NewScanner(strings.NewReader(in)))
		if err != nil {
			t.Fatal(err)
		}
		Summarize(doc)
		return doc
	}
	if err := Gate(io.Discard, summarize(provWhySample)); err != nil {
		t.Errorf("input without overhead arms: %v", err)
	}
	slow := strings.Replace(roundsSample, "1530 ns/op", "1650 ns/op", 1)
	slow = strings.Replace(slow, "1030 ns/op", "1060 ns/op", 1)
	if err := Gate(io.Discard, summarize(slow)); err == nil {
		t.Error("gate passed a 1.06 provenance overhead")
	}
	var noInc []string
	for _, line := range strings.Split(roundsSample, "\n") {
		if !strings.Contains(line, "/incremental") {
			noInc = append(noInc, line)
		}
	}
	if err := Gate(io.Discard, summarize(strings.Join(noInc, "\n"))); err == nil {
		t.Error("gate passed without the incremental arm")
	}
	noProv := summarize(strings.Replace(incrementalSample, "BenchmarkAtlasIncremental/prov", "BenchmarkAtlasIncremental/other", 1))
	if err := Gate(io.Discard, noProv); err == nil {
		t.Error("gate passed without the prov arm")
	}
	nan := summarize(roundsSample)
	nan.Summary["trace_replay_overhead_ratio"] = math.NaN()
	if err := Gate(io.Discard, nan); err == nil {
		t.Error("gate passed a NaN ratio")
	}
}
