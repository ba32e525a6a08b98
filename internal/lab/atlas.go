package lab

import (
	"fmt"
	"io"
	"os"

	"stamp/internal/atlas"
	"stamp/internal/scenario"
	"stamp/internal/trace"
)

// The atlas experiments: internet-scale runs on the CSR graph + flat
// slab engine, destination-sharded across the worker pool. They read
// -scenario and -dests beside the header, and ingest CAIDA snapshots
// (plain or gzip) directly into CSR form without building the
// adjacency-list graph. Only the incremental stream (atlas-replay)
// cycles its script, journals provenance and records spans.
func init() {
	Register(Experiment{
		Name: "atlas-converge", Desc: "internet-scale convergence on the flat CSR engine: per-destination rounds, churn, and loss under a scripted workload",
		DefaultN:        10000,
		DefaultScenario: "flap-storm",
		Flags:           []string{"scenario", "dests"},
		Run:             func(req Request) (*Result, error) { return runAtlas(req, false) },
	})
	Register(Experiment{
		Name: "atlas-loss", Desc: "internet-scale BGP-vs-STAMP transient-loss comparison on the flat CSR engine",
		DefaultN:        10000,
		DefaultScenario: "flap-storm",
		Flags:           []string{"scenario", "dests"},
		Run:             func(req Request) (*Result, error) { return runAtlas(req, true) },
	})
	Register(Experiment{
		Name: "atlas-replay", Desc: "event-stream replay through the incremental engine: per-event convergence cost and time-resolved loss, settled from the invalidated frontier",
		DefaultN:        10000,
		DefaultScenario: "flap-storm",
		Flags:           []string{"scenario", "dests", "repeat", "why", "trace", "trace-sample"},
		Run:             runAtlasReplay,
	})
}

// atlasGraph builds the CSR topology: ingested straight from a
// snapshot when a path is given, converted from the generated graph
// otherwise.
func (r Request) atlasGraph() (*atlas.Graph, error) {
	if r.Topo.Path != "" {
		return atlas.IngestFile(r.Topo.Path)
	}
	g, err := r.graph()
	if err != nil {
		return nil, err
	}
	return atlas.FromTopology(g)
}

// AtlasLoss is the atlas-loss payload: the per-protocol transient loss
// integrals, reduced from the full atlas report.
type AtlasLoss struct {
	Scenario string `json:"scenario"`
	Dests    int    `json:"dests"`
	// Lost AS-rounds during re-convergence, summed over destinations.
	BGPLost   int64 `json:"bgp_lost_as_rounds"`
	RedLost   int64 `json:"red_lost_as_rounds"`
	BlueLost  int64 `json:"blue_lost_as_rounds"`
	StampLost int64 `json:"stamp_lost_as_rounds"`
	// Ratio is STAMP/BGP transient loss (0 when BGP lost nothing).
	Ratio float64 `json:"ratio"`
	// Final unreachability after the script completes.
	BGPUnreachable   int64 `json:"bgp_unreachable_final"`
	StampUnreachable int64 `json:"stamp_unreachable_final"`
}

// Print renders the loss comparison.
func (l *AtlasLoss) Print(w io.Writer) {
	fmt.Fprintf(w, "scenario %s over %d destination shards\n", l.Scenario, l.Dests)
	fmt.Fprintf(w, "  BGP   lost %8d AS-rounds (%d ASes unreachable at end)\n", l.BGPLost, l.BGPUnreachable)
	fmt.Fprintf(w, "  STAMP lost %8d AS-rounds (%d ASes unreachable at end; red %d, blue %d)\n",
		l.StampLost, l.StampUnreachable, l.RedLost, l.BlueLost)
	if l.BGPLost > 0 {
		fmt.Fprintf(w, "  STAMP/BGP transient-loss ratio: %.3f\n", l.Ratio)
	}
}

// runAtlas executes one atlas run; loss=true reduces the report to the
// protocol comparison.
func runAtlas(req Request, loss bool) (*Result, error) {
	kind, err := scenario.ParseKind(req.Scenario)
	if err != nil {
		return nil, err
	}
	g, err := req.atlasGraph()
	if err != nil {
		return nil, err
	}
	rep, err := atlas.Run(atlas.Options{
		Graph: g, Scenario: kind, Dests: req.Dests, Seed: req.Seed,
		Workers: req.Workers, Progress: req.Progress, Context: req.ctx(),
	})
	if err != nil {
		return nil, err
	}
	var data any = rep
	if loss {
		l := &AtlasLoss{
			Scenario: rep.Scenario, Dests: rep.Dests,
			BGPLost: rep.BGP.LostASRounds, RedLost: rep.Red.LostASRounds,
			BlueLost: rep.Blue.LostASRounds, StampLost: rep.StampLostASRounds,
			BGPUnreachable: rep.BGP.UnreachableFinal, StampUnreachable: rep.StampUnreachableFinal,
		}
		if l.BGPLost > 0 {
			l.Ratio = float64(l.StampLost) / float64(l.BGPLost)
		}
		data = l
	}
	return req.envelope("sim", atlasInfo(g), data), nil
}

// writeReplayTrace renders the tracer's retained spans as a Chrome
// trace-event JSON at req.TracePath, stamping the run parameters and
// sampling stats into the document metadata.
func writeReplayTrace(req Request, tracer *trace.Tracer) error {
	f, err := os.Create(req.TracePath)
	if err != nil {
		return fmt.Errorf("lab: trace output: %w", err)
	}
	decisions, sampled := tracer.Traces()
	meta := map[string]any{
		"experiment":   req.Experiment,
		"scenario":     req.Scenario,
		"seed":         req.Seed,
		"sample_every": tracer.SampleEvery(),
		"decisions":    decisions,
		"sampled":      sampled,
		"dropped":      tracer.Dropped(),
	}
	if werr := trace.WriteChrome(f, tracer.Snapshot(), meta); werr != nil {
		f.Close()
		return fmt.Errorf("lab: write trace: %w", werr)
	}
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("lab: write trace: %w", cerr)
	}
	return nil
}

// runAtlasReplay streams the scenario through the incremental engine
// instead of the grouped from-scratch driver: the payload is the full
// per-event cost curve.
func runAtlasReplay(req Request) (*Result, error) {
	if req.TraceSample < 0 {
		return nil, fmt.Errorf("%w: -trace-sample must be 0 or positive", ErrUsage)
	}
	if req.TraceSample != 0 && req.TracePath == "" {
		return nil, fmt.Errorf("%w: -trace-sample requires -trace", ErrUsage)
	}
	kind, err := scenario.ParseKind(req.Scenario)
	if err != nil {
		return nil, err
	}
	g, err := req.atlasGraph()
	if err != nil {
		return nil, err
	}
	var tracer *trace.Tracer
	if req.TracePath != "" {
		tracer = trace.New(trace.Options{SampleEvery: req.TraceSample})
	}
	var why *atlas.WhySpec
	if req.Why != "" {
		spec, err := atlas.ParseWhy(req.Why)
		if err != nil {
			return nil, err
		}
		why = &spec
	}
	rep, err := atlas.Replay(atlas.ReplayOptions{
		Graph: g, Scenario: kind, Repeat: req.Repeat, Dests: req.Dests, Seed: req.Seed,
		Workers: req.Workers, Progress: req.Progress, Context: req.ctx(),
		Tracer: tracer, Why: why,
	})
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		if err := writeReplayTrace(req, tracer); err != nil {
			return nil, err
		}
	}
	return req.envelope("sim", atlasInfo(g), rep), nil
}
