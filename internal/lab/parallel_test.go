package lab

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"stamp/internal/disjoint"
	"stamp/internal/metrics"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/testkit"
	"stamp/internal/traffic"
)

// These tests pin the runner's headline guarantee at the experiment
// level: the same master seed must yield byte-identical aggregated
// reports (text and JSON) whether trials run on 1 worker or 8.

// transientReport renders a transient run to bytes, text and JSON.
func transientReport(t *testing.T, opts TransientOpts) ([]byte, []byte) {
	t.Helper()
	res, err := RunTransient(opts)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	res.Print(&text)
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return text.Bytes(), raw
}

// TestTransientDeterministicAcrossWorkers: -workers must not change a
// single byte of the aggregated transient report.
func TestTransientDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	g := smokeGraph(t, 150, 3)
	base := TransientOpts{G: g, Trials: 6, Seed: 42, Scenario: scenario.SingleLink}

	opts1 := base
	opts1.Workers = 1
	text1, json1 := transientReport(t, opts1)

	opts8 := base
	opts8.Workers = 8
	text8, json8 := transientReport(t, opts8)

	if !bytes.Equal(text1, text8) {
		t.Errorf("text report differs between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", text1, text8)
	}
	if !bytes.Equal(json1, json8) {
		t.Errorf("JSON report differs between workers=1 and workers=8:\n%s\nvs\n%s", json1, json8)
	}
}

// TestFigure1DeterministicAcrossWorkers: the sharded Φ CDF must be
// byte-identical for any pool size.
func TestFigure1DeterministicAcrossWorkers(t *testing.T) {
	var outs [][]byte
	for _, w := range []int{1, 8} {
		res := runData[*Figure1Result](t, Request{Experiment: "figure1", Topo: TopoSpec{N: 300, Seed: 5}, Workers: w})
		var buf bytes.Buffer
		res.Print(&buf)
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("Figure 1 report differs between workers=1 and workers=8:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

// TestSweepDeterministicAcrossWorkers: the flattened grid sweep must be
// byte-identical for any pool size, including its JSON form.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	var texts, jsons [][]byte
	for _, w := range []int{1, 4} {
		res := runData[*SweepResult](t, Request{
			Experiment: "sweep", Topo: TopoSpec{N: 120}, TopoSeeds: []int64{1, 2}, Scenario: "single-link",
			Trials: 2, Seed: 7, Workers: w,
			Protocols: []string{"bgp", "stamp"},
		})
		var buf bytes.Buffer
		res.Print(&buf)
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, buf.Bytes())
		jsons = append(jsons, raw)
	}
	if !bytes.Equal(texts[0], texts[1]) {
		t.Errorf("sweep report differs between workers=1 and workers=4:\n%s\nvs\n%s", texts[0], texts[1])
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		t.Errorf("sweep JSON differs between workers=1 and workers=4")
	}
}

// TestFigure1MatchesPhiAll: the sharded Figure 1 path and the serial
// disjoint.PhiAll must compute identical Φ vectors for the same PhiOpts —
// both draw anchor m's samples from disjoint.AnchorSeed(opts, m).
func TestFigure1MatchesPhiAll(t *testing.T) {
	g := smokeGraph(t, 250, 9)
	opts := disjoint.DefaultPhiOpts()
	serial := metrics.NewCDF(testkit.PhiAll(g, opts))
	sharded := runData[*Figure1Result](t, Request{Experiment: "figure1", Topo: TopoSpec{N: 250, Seed: 9}})
	if serial.Len() != sharded.CDF.Len() {
		t.Fatalf("sample counts differ: %d vs %d", serial.Len(), sharded.CDF.Len())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if serial.Quantile(q) != sharded.CDF.Quantile(q) {
			t.Errorf("quantile %v differs: PhiAll %v vs figure1 %v", q, serial.Quantile(q), sharded.CDF.Quantile(q))
		}
	}
	if serial.Mean() != sharded.Mean {
		t.Errorf("mean differs: PhiAll %v vs figure1 %v", serial.Mean(), sharded.Mean)
	}
}

// TestTransientProgress: the progress callback must reach (total, total)
// exactly once and never regress.
func TestTransientProgress(t *testing.T) {
	g := smokeGraph(t, 120, 7)
	last, finals := 0, 0
	res, err := RunTransient(TransientOpts{
		G: g, Trials: 2, Seed: 1, Scenario: scenario.SingleLink,
		Protocols: []traffic.Protocol{traffic.BGP}, Workers: 2,
		Progress: func(done, total int) {
			if total != 2 {
				t.Errorf("total = %d, want 2", total)
			}
			if done < last {
				t.Errorf("progress regressed: %d after %d", done, last)
			}
			last = done
			if done == total {
				finals++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if finals != 1 {
		t.Errorf("saw %d final progress calls, want 1", finals)
	}
	if res.Stats[traffic.BGP].AffectedHist.Total() != 2 {
		t.Errorf("affected histogram holds %d observations, want 2", res.Stats[traffic.BGP].AffectedHist.Total())
	}
}

// TestTransientSpecEnumeration pins the shard enumeration: trial-major,
// protocol-minor, with the workload shared across a trial's protocols
// and engine seeds private per shard.
func TestTransientSpecEnumeration(t *testing.T) {
	g := smokeGraph(t, 60, 1)
	w := newWorkload(g, scenario.SingleLink, traffic.AllProtocols(), 5)
	spec := shardSpec("transient", w, 3, transientRun(sim.DefaultParams()))
	if want := 3 * len(traffic.AllProtocols()); spec.Trials != want {
		t.Fatalf("spec.Trials = %d, want %d", spec.Trials, want)
	}
	// Shards 0..3 are trial 0 under each protocol: one script, four
	// engine seeds.
	first, err := w.shard(0)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{first.seed: true}
	for i := 1; i < len(w.protos); i++ {
		s, err := w.shard(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.trial != 0 || !reflect.DeepEqual(s.script, first.script) {
			t.Errorf("shard %d: trial %d, script %+v; want trial 0's script %+v", i, s.trial, s.script, first.script)
		}
		seeds[s.seed] = true
	}
	if len(seeds) != len(w.protos) {
		t.Errorf("trial 0's %d protocols share engine seeds: %v", len(w.protos), seeds)
	}
	// Re-running a shard reproduces it.
	out1, err := spec.Run(runner.Trial{Index: 0, Seed: runner.DeriveSeed(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := spec.Run(runner.Trial{Index: 0, Seed: runner.DeriveSeed(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Errorf("re-running shard 0 differed: %+v vs %+v", out1, out2)
	}
	if out1.Trial != 0 || out1.Proto != traffic.BGP {
		t.Errorf("shard 0 = (trial %d, %v), want (0, BGP)", out1.Trial, out1.Proto)
	}
	last, err := spec.Run(runner.Trial{Index: spec.Trials - 1, Seed: runner.DeriveSeed(5, int64(spec.Trials-1))})
	if err != nil {
		t.Fatal(err)
	}
	if last.Trial != 2 || last.Proto != traffic.STAMP {
		t.Errorf("last shard = (trial %d, %v), want (2, STAMP)", last.Trial, last.Proto)
	}
}
