package lab

import (
	"context"
	"fmt"
	"io"
	"time"

	"stamp/internal/core"
	"stamp/internal/metrics"
	"stamp/internal/runner"
	"stamp/internal/steer"
	"stamp/internal/traffic"
)

// The steering experiments: the same random quality workloads replayed
// under four arms — BGP, R-BGP, color-locked STAMP and STAMP-steer —
// with one user-perceived-latency number per arm, preset per
// quality-workload family. Both STAMP arms run the identical control
// plane (deterministic locked blue provider via core.FirstBluePicker),
// so any difference between them is purely the steering policy's
// doing. Both presets honor -scenario, so `stamp run steer-latency
// -scenario oscillating-congestion` measures flap damping without a
// third registry entry.
func init() {
	flags := []string{"trials", "scenario", "protocol", "flows", "tick", "ticks",
		"steer-degrade-ms", "steer-comfort-ms", "steer-max-ms", "steer-n", "steer-cooldown"}
	Register(Experiment{
		Name: "steer-latency", Desc: "four-arm latency steering grid: does health-driven color steering beat locked STAMP under latency brownouts?",
		DefaultN:        400,
		DefaultScenario: "latency-brownout",
		Flags:           flags,
		Run:             runSteer,
	})
	Register(Experiment{
		Name: "steer-loss", Desc: "four-arm latency steering grid under gray failures (silent packet loss instead of latency inflation)",
		DefaultN:        400,
		DefaultScenario: "gray-failure",
		Flags:           flags,
		Run:             runSteer,
	})
}

// steerTicks is the grid's default sample count: quality scripts span
// at most ~2s of virtual time, so 240 ticks of 25ms give a 6s window
// with a settled tail without paying for the loss harness's full 60s.
const steerTicks = 240

// ArmStats aggregates one arm's curves over all trials.
type ArmStats struct {
	Proto traffic.Protocol `json:"protocol"`
	// UserLatency pools the per-tick mean user-latency series over
	// trials; UserLatencyMs accumulates the per-trial time means.
	UserLatency   *metrics.TimeSeries `json:"user_latency_ms"`
	UserLatencyMs metrics.Accum       `json:"user_latency_mean_ms"`
	// Loss accounting, as in the loss-curve harness.
	LostPacketTicks metrics.Accum `json:"lost_packet_ticks"`
	EverAffected    metrics.Accum `json:"ever_affected"`
	// Switches and Unhealthy accumulate per-trial policy totals
	// (STAMP-steer only; zero elsewhere).
	Switches  metrics.Accum `json:"steer_switches"`
	Unhealthy metrics.Accum `json:"steer_unhealthy"`
}

// SteerResult is the steer experiments' payload.
type SteerResult struct {
	Scenario  string        `json:"scenario"`
	Trials    int           `json:"trials"`
	Flows     int           `json:"flows_per_source"`
	Tick      time.Duration `json:"tick_ns"`
	Ticks     int           `json:"ticks"`
	TimeoutMs float64       `json:"timeout_ms"`
	Config    steer.Config  `json:"steer_config"`
	Arms      []*ArmStats   `json:"arms"`

	// Headline: mean user latency of the steering arm vs color-locked
	// STAMP, and their ratio (< 1 means steering won). Zero when either
	// arm is absent.
	SteerLatencyMs     float64 `json:"steer_user_latency_ms,omitempty"`
	LockedLatencyMs    float64 `json:"locked_user_latency_ms,omitempty"`
	SteerVsLockedRatio float64 `json:"steer_vs_locked_latency_ratio,omitempty"`

	// seed seeds the latency model, from the master seed alone so every
	// arm of every trial measures the same network.
	seed int64
}

// Arm returns the stats of one protocol arm (nil if absent).
func (r *SteerResult) Arm(p traffic.Protocol) *ArmStats {
	for _, a := range r.Arms {
		if a.Proto == p {
			return a
		}
	}
	return nil
}

// steerOutcome is one grid shard: its curve and, on the steering arm,
// the policy's unhealthy-sample total.
type steerOutcome struct {
	curve     *traffic.Curve
	unhealthy int64
}

// run measures one shard's user-perceived latency on the result's
// sampling layout.
func (r *SteerResult) run(ctx context.Context, s shard) (steerOutcome, error) {
	// Each shard builds a private model (mutable degradation state)
	// with the shared seed (identical baselines).
	o := traffic.SimOpts{
		G: s.g, Proto: s.proto, Script: s.script,
		Flows: r.Flows, Tick: r.Tick, Ticks: r.Ticks, Seed: s.seed,
		Cost: steer.NewModel(s.g, r.seed), TimeoutMs: r.TimeoutMs, Context: ctx,
	}
	var pol *steer.Policy
	switch s.proto {
	case traffic.STAMPSteer:
		pol = steer.NewPolicy(r.Config)
		o.Steer = pol
		fallthrough
	case traffic.STAMP:
		// Identical control planes: any STAMP-vs-steer delta is pure
		// data-plane steering.
		o.BluePick = core.FirstBluePicker()
	}
	cur, err := traffic.RunSim(o)
	if err != nil || pol == nil {
		return steerOutcome{curve: cur}, err
	}
	cur.SteerSwitches = pol.SwitchCount()
	return steerOutcome{curve: cur, unhealthy: pol.UnhealthyCount()}, nil
}

func (r *SteerResult) merge(_ runner.Trial, out steerOutcome) *SteerResult {
	st, c := r.Arm(out.curve.Proto), out.curve
	if err := st.UserLatency.Merge(c.UserLatency); err != nil {
		// Impossible: every curve uses the result's (Tick, Ticks).
		panic(err)
	}
	st.UserLatencyMs.Add(c.UserLatencyMeanMs)
	st.LostPacketTicks.Add(float64(c.LostPacketTicks))
	st.EverAffected.Add(float64(c.EverAffected))
	st.Switches.Add(float64(c.SteerSwitches))
	st.Unhealthy.Add(float64(out.unhealthy))
	return r
}

// runSteer measures user-perceived latency for each arm under the
// scenario, averaged over the trials. The result is bit-identical for
// any worker count.
func runSteer(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	w, err := req.workload(g, true)
	if err != nil {
		return nil, err
	}
	res := &SteerResult{
		Scenario: req.Scenario, Trials: req.Trials, Flows: req.Flows,
		TimeoutMs: traffic.DefaultTimeoutMs,
		Config:    steer.NewPolicy(req.Steer).Config(),
		seed:      req.Seed,
	}
	res.Tick, res.Ticks = req.sampling(traffic.DefaultTick, steerTicks)
	for _, p := range w.protos {
		res.Arms = append(res.Arms, &ArmStats{Proto: p, UserLatency: newSeries(res.Tick, res.Ticks)})
	}
	spec := shardSpec(fmt.Sprintf("steer(%s)", req.Scenario), w, req.Trials, res.run)
	if _, err := runner.Fold(spec, req.runner(), res, (*SteerResult).merge); err != nil {
		return nil, err
	}
	if s, l := res.Arm(traffic.STAMPSteer), res.Arm(traffic.STAMP); s != nil && l != nil {
		res.SteerLatencyMs = s.UserLatencyMs.Mean()
		res.LockedLatencyMs = l.UserLatencyMs.Mean()
		if res.LockedLatencyMs > 0 {
			res.SteerVsLockedRatio = res.SteerLatencyMs / res.LockedLatencyMs
		}
	}
	return req.envelope("sim", graphInfo(g), res), nil
}

// Print renders the four-arm comparison.
func (r *SteerResult) Print(w io.Writer) {
	window := time.Duration(r.Ticks) * r.Tick
	fmt.Fprintf(w, "Latency steering under %q (%d trials, %v window at %v ticks, timeout %.0fms)\n",
		r.Scenario, r.Trials, window, r.Tick, r.TimeoutMs)
	t := metrics.NewTable("protocol", "user latency", "lost pkt-ticks", "ever affected", "switches", "unhealthy ticks")
	for _, st := range r.Arms {
		sw, un := "-", "-"
		if st.Proto == traffic.STAMPSteer {
			sw = fmt.Sprintf("%.1f", st.Switches.Mean())
			un = fmt.Sprintf("%.1f", st.Unhealthy.Mean())
		}
		t.AddRow(
			st.Proto.String(),
			fmt.Sprintf("%.2fms", st.UserLatencyMs.Mean()),
			fmt.Sprintf("%.1f", st.LostPacketTicks.Mean()),
			fmt.Sprintf("%.1f", st.EverAffected.Mean()),
			sw, un,
		)
	}
	if err := t.Render(w); err != nil {
		fmt.Fprintf(w, "render error: %v\n", err)
		return
	}
	if r.SteerVsLockedRatio > 0 {
		verdict := "steering wins"
		if r.SteerVsLockedRatio >= 1 {
			verdict = "locking wins"
		}
		fmt.Fprintf(w, "steer/locked user latency: %.3f (%s)\n", r.SteerVsLockedRatio, verdict)
	}
}
