package lab

import (
	"context"
	"fmt"
	"io"
	"time"

	"stamp/internal/bgp"
	"stamp/internal/core"
	"stamp/internal/emu"
	"stamp/internal/metrics"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/traffic"
)

// The loss-curve experiment drives the packet-level traffic engine
// (internal/traffic) over many random workload instances and aggregates
// time-resolved delivery/loss/stretch curves per protocol — the
// data-plane companion to the control-plane transient experiment: not
// just how many ASes were ever affected, but when packets were lost and
// for how long. Its shards are one per (trial, protocol), with the same
// seed-derivation discipline as the transient run: workload randomness
// shared by all protocols of a trial, engine randomness private per
// shard. On the emu backend it is instead one live parity run against
// the simulator reference.

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

// LossResult is the sim-backend payload of the loss experiment.
type LossResult struct {
	Scenario string                          `json:"scenario"`
	Trials   int                             `json:"trials"`
	Flows    int                             `json:"flows_per_source"`
	Tick     time.Duration                   `json:"tick_ns"`
	Ticks    int                             `json:"ticks"`
	Stats    map[traffic.Protocol]*LossStats `json:"stats"`

	protos []traffic.Protocol
}

// merge folds one shard's curve into its protocol's aggregates. Layout
// mismatches are impossible: every curve and every aggregate series is
// built from the same (Tick, Ticks).
func (r *LossResult) merge(_ runner.Trial, c *traffic.Curve) *LossResult {
	st := r.Stats[c.Proto]
	for _, m := range [][2]*metrics.TimeSeries{
		{st.Lost, c.Lost}, {st.Delivered, c.Delivered}, {st.Stretch, c.Stretch},
	} {
		if err := m[0].Merge(m[1]); err != nil {
			panic(err)
		}
	}
	st.LostPacketTicks.Add(float64(c.LostPacketTicks))
	st.TransientLost.Add(float64(c.TransientLostPacketTicks))
	st.EverAffected.Add(float64(c.EverAffected))
	st.TransientAffected.Add(float64(c.TransientAffected))
	return r
}

// run measures one shard's curve on the result's sampling layout.
func (r *LossResult) run(ctx context.Context, s shard) (*traffic.Curve, error) {
	return traffic.RunSim(traffic.SimOpts{
		G: s.g, Proto: s.proto, Script: s.script,
		Flows: r.Flows, Tick: r.Tick, Ticks: r.Ticks, Seed: s.seed, Context: ctx,
	})
}

// newSeries builds one per-tick aggregate series of the layout.
func newSeries(tick time.Duration, ticks int) *metrics.TimeSeries {
	ts, err := metrics.NewTimeSeries(tick.Seconds(), ticks)
	if err != nil {
		// A positive tick and tick count always yield a valid layout.
		panic(err)
	}
	return ts
}

// runLoss dispatches the loss experiment across the backend switch:
// sharded virtual-time loss curves on sim, a live parity run on emu.
func runLoss(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	if req.Backend == "emu" {
		return runLossParity(req, g)
	}
	w, err := req.workload(g, false)
	if err != nil {
		return nil, err
	}
	res := &LossResult{
		Scenario: req.Scenario, Trials: req.Trials, Flows: req.Flows,
		Stats:  make(map[traffic.Protocol]*LossStats, len(w.protos)),
		protos: w.protos,
	}
	res.Tick, res.Ticks = req.sampling(traffic.DefaultTick, traffic.DefaultTicks)
	for _, p := range w.protos {
		res.Stats[p] = &LossStats{
			Lost:      newSeries(res.Tick, res.Ticks),
			Delivered: newSeries(res.Tick, res.Ticks),
			Stretch:   newSeries(res.Tick, res.Ticks),
		}
	}
	spec := shardSpec(fmt.Sprintf("loss(%s)", req.Scenario), w, req.Trials, res.run)
	if _, err := runner.Fold(spec, req.runner(), res, (*LossResult).merge); err != nil {
		return nil, err
	}
	return req.envelope("sim", graphInfo(g), res), nil
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
		protos = traffic.AllProtocols()
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

// LossParity is the loss experiment's emu-backend payload: the same
// flows driven through the live fleet and the deterministic sim
// reference, with the converged per-source deliverability diffed.
type LossParity struct {
	Transport   string               `json:"transport"`
	Dest        topology.ASN         `json:"dest"`
	Sim         *traffic.Curve       `json:"sim"`
	Live        *traffic.Curve       `json:"live"`
	Divergences []traffic.Divergence `json:"divergences"`
}

// Print renders the parity comparison.
func (p *LossParity) Print(w io.Writer) {
	fmt.Fprintf(w, "live flows over %s, scenario at destination AS%d\n", p.Transport, p.Dest)
	row := func(label string, c *traffic.Curve) {
		fmt.Fprintf(w, "  %-4s lost %6d packet-ticks (%d transient), %3d sources ever affected\n",
			label, c.LostPacketTicks, c.TransientLostPacketTicks, c.EverAffected)
	}
	row("sim", p.Sim)
	row("live", p.Live)
	if len(p.Divergences) == 0 {
		fmt.Fprintln(w, "transient-deliverability parity: live data plane == sim data plane (0 divergences)")
		return
	}
	fmt.Fprintf(w, "transient-deliverability parity FAILED: %d divergences\n", len(p.Divergences))
	for _, d := range p.Divergences {
		fmt.Fprintf(w, "  %v\n", d)
	}
}

// runLossParity runs one live instance of the scenario, differentially
// validated against the sim reference on the identical script — the
// sampling layout shared so the curves line up tick for tick. The live
// fleet is a STAMP deployment; an explicit request for another protocol
// is refused rather than silently measuring the wrong one.
func runLossParity(req Request, g *topology.Graph) (*Result, error) {
	proto := traffic.STAMP
	if len(req.Protocols) > 0 {
		protos, err := req.protocols(false)
		if err != nil {
			return nil, err
		}
		if len(protos) > 1 {
			return nil, fmt.Errorf("the emu backend measures one protocol per run (got %v); use -backend sim for the full set", req.Protocols)
		}
		proto = protos[0]
	}
	script, err := scenario.Named(req.Scenario, g, req.Seed)
	if err != nil {
		return nil, err
	}
	if proto != traffic.STAMP {
		return nil, fmt.Errorf("the emu backend is a STAMP fleet; protocol %v needs -backend sim", proto)
	}
	tick, ticks := req.sampling(traffic.DefaultEmuTick, traffic.DefaultEmuTicks)
	live, err := emuAwait(req.ctx(), func() (*traffic.Curve, error) {
		return traffic.RunEmu(traffic.EmuOpts{
			Fabric: emu.Options{Graph: g, Transport: req.Transport, Workers: req.Workers},
			Script: script, Flows: req.Flows, Tick: tick, Ticks: ticks,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("emu backend: %w", err)
	}
	// The reference runs the live fleet's deterministic configuration:
	// its timing and first-candidate lock picks.
	ref, err := traffic.RunSim(traffic.SimOpts{
		G: g, Proto: proto, Params: emu.ReferenceParams(), Script: script,
		Flows: req.Flows, Tick: tick, Ticks: ticks, Seed: req.Seed,
		BluePick: core.FirstBluePicker(), Context: req.ctx(),
	})
	if err != nil {
		return nil, fmt.Errorf("sim reference: %w", err)
	}
	divs := ref.DiffFinal(live)
	req.Trials = 0 // one live instance; the trials knob does not apply
	env := req.envelope("emu", graphInfo(g), &LossParity{
		Transport:   req.Transport,
		Dest:        script.Dest,
		Sim:         ref,
		Live:        live,
		Divergences: append([]traffic.Divergence{}, divs...),
	})
	env.Divergences = len(divs)
	return env, nil
}

// emuAwait runs a blocking emu operation on its own goroutine and
// returns early on cancellation, so Ctrl-C is honored even though the
// fleet itself has no cancellation hooks. An abandoned run keeps its
// goroutine until the fleet converges or times out, then tears the
// fabric down itself — acceptable for the CLI (the process exits) and
// bounded by the fleet's ConvergeTimeout everywhere else.
func emuAwait[T any](ctx context.Context, run func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := run()
		ch <- outcome{v, err}
	}()
	select {
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	case o := <-ch:
		return o.v, o.err
	}
}

// CDFSummary condenses a per-AS wall-clock convergence CDF.
type CDFSummary struct {
	ASesChanged int     `json:"ases_changed"`
	MeanMs      float64 `json:"mean_ms"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	MaxMs       float64 `json:"max_ms"`
}

func summarizeCDF(c *metrics.CDF) *CDFSummary {
	if c == nil || c.Len() == 0 {
		return nil
	}
	return &CDFSummary{
		ASesChanged: c.Len(),
		MeanMs:      1e3 * c.Mean(),
		P50Ms:       1e3 * c.Quantile(0.5),
		P90Ms:       1e3 * c.Quantile(0.9),
		MaxMs:       1e3 * c.Quantile(1),
	}
}

// EmuConverge is the emu-converge payload: converged routing state plus
// — on the emu backend — the live fleet's wall-clock measurements and
// the differential diff against the simulator.
type EmuConverge struct {
	Transport   string           `json:"transport,omitempty"`
	Dest        topology.ASN     `json:"dest"`
	Stats       emu.Stats        `json:"stats"`
	BootMs      float64          `json:"boot_ms"`
	InitialMs   float64          `json:"initial_convergence_ms"`
	ScenarioMs  float64          `json:"scenario_convergence_ms"`
	RedRoutes   int              `json:"red_routes"`
	BlueRoutes  int              `json:"blue_routes"`
	ConvCDF     *CDFSummary      `json:"scenario_convergence_cdf,omitempty"`
	DiffRan     bool             `json:"diff_ran"`
	Divergences []emu.Divergence `json:"divergences"`
}

// Print renders the convergence run.
func (r *EmuConverge) Print(w io.Writer) {
	fmt.Fprintf(w, "scenario at destination AS%d\n", r.Dest)
	if r.Stats.Sessions > 0 {
		fmt.Fprintf(w, "  %d live sessions over %s\n", r.Stats.Sessions, r.Transport)
		fmt.Fprintf(w, "  boot (wire + establish all)  %8.1f ms\n", r.BootMs)
		fmt.Fprintf(w, "  initial convergence          %8.1f ms\n", r.InitialMs)
		fmt.Fprintf(w, "  scenario convergence         %8.1f ms\n", r.ScenarioMs)
		fmt.Fprintf(w, "  updates sent                 %8d   (dropped in severed transit: %d)\n",
			r.Stats.Updates, r.Stats.Dropped)
	}
	fmt.Fprintf(w, "  final routes                 %8d red, %d blue\n", r.RedRoutes, r.BlueRoutes)
	if r.ConvCDF != nil {
		fmt.Fprintf(w, "  per-AS convergence           mean %.1f ms, p50 %.1f ms, p90 %.1f ms, max %.1f ms (%d ASes changed)\n",
			r.ConvCDF.MeanMs, r.ConvCDF.P50Ms, r.ConvCDF.P90Ms, r.ConvCDF.MaxMs, r.ConvCDF.ASesChanged)
	}
	switch {
	case !r.DiffRan:
		// Only a live run can skip validation; the sim backend IS the
		// reference and has nothing to diff against.
		if r.Stats.Sessions > 0 {
			fmt.Fprintln(w, "differential validation skipped (-diff=false)")
		}
	case len(r.Divergences) == 0:
		fmt.Fprintln(w, "differential validation: live tables == simulator tables (0 divergences)")
	default:
		fmt.Fprintf(w, "differential validation FAILED: %d divergences\n", len(r.Divergences))
		for _, d := range r.Divergences {
			fmt.Fprintf(w, "  %v\n", d)
		}
	}
}

// runEmuConverge converges the scenario on the requested backend: the
// simulator reference run (the deterministic configuration the
// differential validator uses), or a live fleet whose quiesced tables
// are validated against that reference on the identical script.
func runEmuConverge(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	script, err := scenario.Named(req.Scenario, g, req.Seed)
	if err != nil {
		return nil, err
	}
	reference := func() (*emu.Tables, error) {
		return emu.SimTables(req.ctx(), g, script, emu.ReferenceParams(), req.Seed)
	}
	payload := &EmuConverge{Dest: script.Dest, Divergences: []emu.Divergence{}}
	var tables *emu.Tables
	if req.Backend == "sim" {
		if tables, err = reference(); err != nil {
			return nil, err
		}
	} else {
		live, err := emuAwait(req.ctx(), func() (*emu.Result, error) {
			return emu.Run(emu.Options{
				Graph: g, Transport: req.Transport, Workers: req.Workers,
				ConvergeTimeout: req.ConvergeTimeout,
			}, script)
		})
		if err != nil {
			return nil, err
		}
		tables = live.Tables
		payload.Transport = req.Transport
		payload.Stats = live.Stats
		payload.BootMs = float64(live.Boot) / 1e6
		payload.InitialMs = float64(live.InitialConvergence) / 1e6
		payload.ScenarioMs = float64(live.ScenarioConvergence) / 1e6
		payload.ConvCDF = summarizeCDF(live.ConvCDF)

		if !req.NoDiff {
			ref, err := reference()
			if err != nil {
				return nil, fmt.Errorf("sim reference: %w", err)
			}
			payload.DiffRan = true
			payload.Divergences = append(payload.Divergences, ref.Diff(tables)...)
		}
	}
	payload.RedRoutes = tables.Routes(bgp.ColorRed)
	payload.BlueRoutes = tables.Routes(bgp.ColorBlue)
	env := req.envelope(req.Backend, graphInfo(g), payload)
	env.Divergences = len(payload.Divergences)
	return env, nil
}
