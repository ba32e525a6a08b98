package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/lab"
	"stamp/internal/scenario"
	"stamp/internal/trace"
)

// TestSmokeWorkloads runs every workload at smoke size, untraced and
// traced, with every correctness check on.
func TestSmokeWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		r, err := w.size(1, true).run(7)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		if r.failed != 0 || r.ops == 0 {
			t.Errorf("%s untraced: %d of %d ops failed: %v", w.name, r.failed, r.ops, r.failures)
		}
		for _, d := range endToEnd {
			if v, ok := r.m[d.name]; !ok || v.v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (set %v), want > 0", w.name, d.name, v.v, ok)
			}
		}

		r, err = w.size(1, true).trace(7, out)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if r.failed != 0 {
			t.Errorf("%s traced: %d of %d ops failed: %v", w.name, r.failed, r.ops, r.failures)
		}
		if v := r.m["trace.overhead_ratio"]; v.v <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %v", w.name, v.v)
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Fatalf("%s: trace file does not load: %v (%d events)", w.name, err, len(doc.TraceEvents))
		}
		for _, ev := range doc.TraceEvents {
			if _, ok := ev.Args["op"]; !ok {
				t.Fatalf("%s: span %s carries no operation index", w.name, ev.Name)
			}
		}
	}
}

// TestExactCountsRepeat pins the claim the layer table rests on: the
// program's own counters repeat exactly for a seed.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{"atlas.changed_per_event", "atlas.rounds_per_event", "atlas.reroots", "atlas.useful_ratio",
		"atlas.allocs_per_event", "serve.snapshot_fallbacks", "serve.read_errors", "serve.epoch_end", "prov.appends_per_event"}
	w, _ := findWorkload("serve-write-50k")
	a, err := w.size(1, true).trace(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.size(1, true).trace(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range exact {
		if a.m[name].v != b.m[name].v {
			t.Errorf("%s: %v then %v for the same seed", name, a.m[name].v, b.m[name].v)
		}
	}
}

// TestWorkerDeterminism: the batch entry points the bench calls give
// byte-identical JSON for one and two workers, so Workers is not an input
// that changes what is computed.
func TestWorkerDeterminism(t *testing.T) {
	tp, err := buildTopo(800, 5)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func(workers int) (any, error){
		"atlas.Run": func(w int) (any, error) {
			return atlas.Run(atlas.Options{Graph: tp.csr, Scenario: scenario.FlapStorm, Dests: 6, Seed: 9, Workers: w})
		},
		"atlas.Replay": func(w int) (any, error) {
			return atlas.Replay(atlas.ReplayOptions{Graph: tp.csr, Scenario: scenario.FlapStorm, Repeat: 2, Dests: 4, Seed: 9, Workers: w})
		},
		"lab.Run(loss)": func(w int) (any, error) {
			return lab.Run(lossSpec{n: 200, trials: 2, ticks: 200}.request(9, w))
		},
	}
	for name, call := range calls {
		var got [2][]byte
		for i, w := range []int{1, 2} {
			v, err := call(w)
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, w, err)
			}
			if got[i], err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		if string(got[0]) != string(got[1]) {
			t.Errorf("%s: JSON differs between 1 and 2 workers", name)
		}
	}
}

func TestPercentileChoice(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	// Highest candidate with at least ten samples beyond it, capped by
	// what the workload asks for.
	for _, c := range []struct {
		n    int
		want float64
		tail float64
	}{
		{1, 99, 50}, {19, 99, 50}, {20, 99, 50}, {99, 99, 50}, {100, 99, 90}, {999, 99, 90},
		{1000, 99, 99}, {1200, 90, 90}, {300000, 99, 99}, {300000, 99.9, 99.9}, {9999, 99.9, 99},
	} {
		if got := supportedTail(c.n, c.want); got != c.tail {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", c.n, c.want, got, c.tail)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestSelfTime: a span's self time is its duration minus the part of its
// interval its children cover, with overlapping children counted once and
// the part of a child outside the parent ignored.
func TestSelfTime(t *testing.T) {
	recs := []trace.Record{
		{Span: 1, Start: 0, Dur: 100},
		{Span: 2, Parent: 1, Start: 10, Dur: 30},  // 10..40
		{Span: 3, Parent: 1, Start: 30, Dur: 30},  // 30..60 overlaps span 2
		{Span: 4, Parent: 1, Start: 90, Dur: 50},  // 90..140 sticks out
		{Span: 5, Parent: 1, Start: 35, Dur: 5},   // inside the union already
		{Span: 6, Parent: 3, Start: 40, Dur: 10},  // grandchild: only its own parent pays
		{Span: 7, Parent: 99, Start: 0, Dur: 500}, // orphan
	}
	self := selfTimes(recs)
	for span, want := range map[uint64]int64{1: 40, 2: 30, 3: 20, 4: 50, 5: 5, 6: 10, 7: 500} {
		if self[span] != want {
			t.Errorf("self time of span %d = %d, want %d", span, self[span], want)
		}
	}
}

// TestDueTimes: an open-loop event is timed from when it was due, and the
// generator's lateness is never negative.
func TestDueTimes(t *testing.T) {
	t0 := time.Unix(100, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	// On time: started at the due time, took 3 ms.
	apply, due, late := dueTimes(ms(20), ms(20), ms(23))
	if apply != 3*time.Millisecond || due != 3*time.Millisecond || late != 0 {
		t.Errorf("on time: apply %v due %v late %v", apply, due, late)
	}
	// A stall delayed the start by 15 ms: the wait is charged to the event.
	apply, due, late = dueTimes(ms(20), ms(35), ms(38))
	if apply != 3*time.Millisecond || due != 18*time.Millisecond || late != 15*time.Millisecond {
		t.Errorf("stalled: apply %v due %v late %v", apply, due, late)
	}
	// Closed loop: the due time is the start.
	if _, due, late = dueTimes(ms(5), ms(5), ms(9)); due != 4*time.Millisecond || late != 0 {
		t.Errorf("closed loop: due %v late %v", due, late)
	}
	// A generator that wakes early is not late.
	if _, _, late = dueTimes(ms(20), ms(19), ms(22)); late != 0 {
		t.Errorf("early start: late %v", late)
	}
}

func TestCompareRule(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 140, 70, 120, 85}
	for _, c := range []struct {
		name         string
		base, change []float64
		lower        bool
		bound        float64
		want         verdict
	}{
		{"same", tight, tight, true, 0.10, vUnchanged},
		{"inside the spread", tight, []float64{101, 100, 101, 102, 100}, true, 0.10, vUnchanged},
		{"worse beyond the bound", tight, []float64{115, 116, 114, 115, 117}, true, 0.10, vRegressed},
		{"worse beyond the spread only", tight, []float64{105, 106, 104, 105, 107}, true, 0.10, vWorse},
		{"better beyond the spread", tight, []float64{90, 91, 89, 90, 92}, true, 0.10, vImproved},
		{"higher is better, fell", tight, []float64{85, 86, 84, 85, 87}, false, 0.10, vRegressed},
		{"higher is better, rose", tight, []float64{110, 111, 109, 110, 112}, false, 0.10, vImproved},
		{"spread wider than the bound", noisy, []float64{104, 139, 75, 118, 90}, true, 0.10, vUnresolved},
		{"noisy, but every run better", noisy, []float64{50, 60, 55, 52, 58}, true, 0.10, vImproved},
		{"noisy, and every run worse", noisy, []float64{150, 160, 155, 152, 158}, true, 0.10, vRegressed},
		{"nothing to compare", nil, tight, true, 0.10, vUnresolved},
	} {
		if got := compareRuns(c.base, c.change, c.lower, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestStormBookkeeping(t *testing.T) {
	// A storm of 2 links, 2 cycles: F0 F1 R0 R1 F0 F1 R0 R1.
	var script []scenario.Event
	for c := 0; c < 2; c++ {
		script = append(script,
			scenario.Event{Op: scenario.OpFailLink, A: 1, B: 2}, scenario.Event{Op: scenario.OpFailLink, A: 4, B: 3},
			scenario.Event{Op: scenario.OpRestoreLink, A: 2, B: 1}, scenario.Event{Op: scenario.OpRestoreLink, A: 3, B: 4})
	}
	if d := netDamage(script); len(d) != 0 {
		t.Errorf("a full storm leaves %v down", d)
	}
	d := netDamage(script[:6])
	if len(d) != 2 || d[0].A != 1 || d[0].B != 2 || d[1].A != 3 || d[1].B != 4 {
		t.Errorf("mid-storm damage = %v", d)
	}
	if d = netDamage(script[:7]); len(d) != 1 || d[0].A != 3 {
		t.Errorf("damage after one restore = %v", d)
	}
	// Counts that land where every link is restored are trimmed.
	for count, want := range map[int]int{1200: 1200, 1024: 992, 256: 224, 128: 96, 100: 100} {
		if got := midStorm(count, 256); got != want {
			t.Errorf("midStorm(%d, 256) = %d, want %d", count, got, want)
		}
		if got := midStorm(count, 256); got%128 == 0 {
			t.Errorf("midStorm(%d, 256) = %d ends on a restored topology", count, got)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metric and workload tables here: `go test -run BenchmarkJSON
// -update` regenerates it.
func TestBenchmarkJSON(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		doc.EndToEnd = append(doc.EndToEnd, metric{d.name, d.unit, d.better, &d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s is out of step with the tables in this package; run go test -run BenchmarkJSON -update", path)
	}
}
