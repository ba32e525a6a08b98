package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"stamp/internal/metrics"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/topology"
	"stamp/internal/traffic"
)

// The loss-curve experiment drives the packet-level traffic engine
// (internal/traffic) over many random workload instances and aggregates
// time-resolved delivery/loss/stretch curves per protocol — the
// data-plane companion to the control-plane transient experiment: not
// just how many ASes were ever affected, but when packets were lost and
// for how long. Like every harness here it is expressed as enumerable
// runner shards — one per (trial, protocol) — and its aggregates are
// bit-identical for any worker count.

// LossOpts configures a loss-curve experiment.
type LossOpts struct {
	// G is the AS topology.
	G *topology.Graph
	// Params is the simulation timing model (DefaultParams if zero).
	Params sim.Params
	// Trials is the number of random workload instances.
	Trials int
	// Seed is the master seed; per-trial workload and engine seeds
	// derive from it, so results do not depend on Workers.
	Seed int64
	// Scenario is the script name (scenario.Names()).
	Scenario string
	// Protocols under test (AllProtocols if nil).
	Protocols []Protocol
	// Flows is the number of flows per source AS (default 1).
	Flows int
	// Tick and Ticks control sampling (traffic defaults if zero).
	Tick  time.Duration
	Ticks int
	// Workers sizes the trial worker pool (<= 0: one per CPU).
	Workers int
	// Progress, when non-nil, receives (done, total) shard counts.
	Progress func(done, total int)
	// Context cancels the run (nil = background).
	Context context.Context
	// Curve produces one shard's curve; traffic.RunSim when nil. The lab
	// layer injects its Backend here so every sharded loss trial executes
	// through the same backend interface as the live path.
	Curve func(traffic.SimOpts) (*traffic.Curve, error)
}

func (o LossOpts) normalized() LossOpts {
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Params == (sim.Params{}) {
		o.Params = sim.DefaultParams()
	}
	if o.Scenario == "" {
		o.Scenario = "link-failure"
	}
	if o.Protocols == nil {
		o.Protocols = AllProtocols()
	}
	if o.Flows <= 0 {
		o.Flows = traffic.DefaultFlows
	}
	if o.Tick <= 0 {
		o.Tick = traffic.DefaultTick
	}
	if o.Ticks <= 0 {
		o.Ticks = traffic.DefaultTicks
	}
	if o.Curve == nil {
		o.Curve = traffic.RunSim
	}
	return o
}

// LossOutcome is the result of one (trial, protocol) loss shard.
type LossOutcome struct {
	Trial int
	Proto Protocol
	Curve *traffic.Curve
}

// LossSpec expresses the loss-curve experiment as enumerable runner
// shards, one per (trial, protocol) pair ordered trial-major, with the
// same seed-derivation discipline as TransientSpec: workload randomness
// shared by all protocols of a trial, engine randomness private per
// shard.
func LossSpec(opts LossOpts) (runner.Spec[LossOutcome], error) {
	if opts.G == nil {
		return runner.Spec[LossOutcome]{}, fmt.Errorf("experiments: nil topology")
	}
	opts = opts.normalized()
	protos := opts.Protocols
	return runner.Spec[LossOutcome]{
		Name:   fmt.Sprintf("loss(%s)", opts.Scenario),
		Trials: opts.Trials * len(protos),
		Seed:   opts.Seed,
		Run: func(t runner.Trial) (LossOutcome, error) {
			trial := t.Index / len(protos)
			pi := t.Index % len(protos)
			script, err := scenario.Named(opts.Scenario, opts.G,
				runner.DeriveSeed(opts.Seed, streamWorkload, int64(trial)))
			if err != nil {
				return LossOutcome{}, err
			}
			cur, err := opts.Curve(traffic.SimOpts{
				G:       opts.G,
				Proto:   protos[pi],
				Params:  opts.Params,
				Script:  script,
				Flows:   opts.Flows,
				Tick:    opts.Tick,
				Ticks:   opts.Ticks,
				Seed:    runner.DeriveSeed(opts.Seed, streamEngine, int64(trial), int64(protos[pi])),
				Context: t.Ctx,
			})
			if err != nil {
				return LossOutcome{}, fmt.Errorf("%v trial %d: %w", protos[pi], trial, err)
			}
			return LossOutcome{Trial: trial, Proto: protos[pi], Curve: cur}, nil
		},
	}, nil
}

// LossStats aggregates one protocol's curves over all trials.
type LossStats struct {
	// Lost, Delivered, and Stretch are the per-tick series pooled over
	// trials (sums add; Mean(i) is the per-trial mean at tick i).
	Lost      *metrics.TimeSeries `json:"lost"`
	Delivered *metrics.TimeSeries `json:"delivered"`
	Stretch   *metrics.TimeSeries `json:"stretch"`
	// Per-trial loss integrals and affected counts.
	LostPacketTicks   metrics.Accum `json:"lost_packet_ticks"`
	TransientLost     metrics.Accum `json:"transient_lost_packet_ticks"`
	EverAffected      metrics.Accum `json:"ever_affected"`
	TransientAffected metrics.Accum `json:"transient_affected"`
}

// LossResult is the outcome of RunLossCurves.
type LossResult struct {
	Scenario string                  `json:"scenario"`
	Trials   int                     `json:"trials"`
	Flows    int                     `json:"flows_per_source"`
	Tick     time.Duration           `json:"tick_ns"`
	Ticks    int                     `json:"ticks"`
	Stats    map[Protocol]*LossStats `json:"stats"`

	protos []Protocol
}

// lossAccum folds LossOutcome shards in trial order.
type lossAccum struct {
	res *LossResult
}

func newLossAccum(opts LossOpts) *lossAccum {
	res := &LossResult{
		Scenario: opts.Scenario,
		Trials:   opts.Trials,
		Flows:    opts.Flows,
		Tick:     opts.Tick,
		Ticks:    opts.Ticks,
		Stats:    make(map[Protocol]*LossStats, len(opts.Protocols)),
		protos:   opts.Protocols,
	}
	mustTS := func() *metrics.TimeSeries {
		ts, err := metrics.NewTimeSeries(opts.Tick.Seconds(), opts.Ticks)
		if err != nil {
			// Normalized opts always yield a valid layout.
			panic(err)
		}
		return ts
	}
	for _, p := range opts.Protocols {
		res.Stats[p] = &LossStats{Lost: mustTS(), Delivered: mustTS(), Stretch: mustTS()}
	}
	return &lossAccum{res: res}
}

func (a *lossAccum) merge(out LossOutcome) *lossAccum {
	st := a.res.Stats[out.Proto]
	// Layout mismatches are impossible: every curve and every aggregate
	// series is built from the same normalized (Tick, Ticks).
	if err := st.Lost.Merge(out.Curve.Lost); err != nil {
		panic(err)
	}
	if err := st.Delivered.Merge(out.Curve.Delivered); err != nil {
		panic(err)
	}
	if err := st.Stretch.Merge(out.Curve.Stretch); err != nil {
		panic(err)
	}
	st.LostPacketTicks.Add(float64(out.Curve.LostPacketTicks))
	st.TransientLost.Add(float64(out.Curve.TransientLostPacketTicks))
	st.EverAffected.Add(float64(out.Curve.EverAffected))
	st.TransientAffected.Add(float64(out.Curve.TransientAffected))
	return a
}

// RunLossCurves measures time-resolved packet loss for each protocol
// under the named scenario, averaged over Trials random instances.
// Shards run on opts.Workers goroutines; the aggregated result is
// bit-identical for any worker count.
func RunLossCurves(opts LossOpts) (*LossResult, error) {
	if opts.G == nil {
		return nil, fmt.Errorf("experiments: nil topology")
	}
	opts = opts.normalized()
	spec, err := LossSpec(opts)
	if err != nil {
		return nil, err
	}
	acc, err := runner.Fold(spec, runner.Options{Workers: opts.Workers, Progress: opts.Progress, Context: opts.Context},
		newLossAccum(opts),
		func(a *lossAccum, _ runner.Trial, out LossOutcome) *lossAccum { return a.merge(out) })
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return acc.res, nil
}

// Print renders the per-protocol loss summary in the paper's
// presentation order.
func (r *LossResult) Print(w io.Writer) {
	window := time.Duration(r.Ticks) * r.Tick
	fmt.Fprintf(w, "Packet loss under %q (%d trials, %d flows/source, %v window at %v ticks)\n",
		r.Scenario, r.Trials, r.Flows, window, r.Tick)
	t := metrics.NewTable("protocol", "lost pkt-ticks", "transient lost", "ever affected", "transient affected", "peak loss at")
	protos := r.protos
	if protos == nil {
		protos = AllProtocols()
	}
	for _, p := range protos {
		st, ok := r.Stats[p]
		if !ok {
			continue
		}
		peak := "-"
		if i := st.Lost.PeakBucket(); i >= 0 && st.Lost.Sum(i) > 0 {
			peak = fmt.Sprintf("%.2fs", (float64(i)+0.5)*st.Lost.Width())
		}
		t.AddRow(
			p.String(),
			fmt.Sprintf("%.1f", st.LostPacketTicks.Mean()),
			fmt.Sprintf("%.1f", st.TransientLost.Mean()),
			fmt.Sprintf("%.1f", st.EverAffected.Mean()),
			fmt.Sprintf("%.1f", st.TransientAffected.Mean()),
			peak,
		)
	}
	if err := t.Render(w); err != nil {
		fmt.Fprintf(w, "render error: %v\n", err)
	}
}
