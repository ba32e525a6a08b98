package traffic

import (
	"context"
	"fmt"
	"slices"
	"time"

	"stamp/internal/core"
	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/topology"
)

// Defaults for flow injection. The sim tick must resolve sub-second loss
// windows (withdrawal waves last on the order of the 10–20ms message
// delay), while the window must span MRAI-paced convergence (tens of
// seconds of virtual time): 2400 ticks of 25ms cover 60s at wave
// resolution. The emu backend overrides with wall-clock-scale defaults
// (the timer-free live fleet converges in tens of milliseconds).
const (
	DefaultFlows    = 1
	DefaultTick     = 25 * time.Millisecond
	DefaultTicks    = 2400
	DefaultEmuTick  = 10 * time.Millisecond
	DefaultEmuTicks = 150
)

// DefaultTimeoutMs is the user-perceived cost of a lost packet in the
// user-latency accounting: the retransmission timeout an application
// eats before giving up on the sample.
const DefaultTimeoutMs = 400.0

// SimOpts configures one simulated flow-injection run.
type SimOpts struct {
	// G is the AS topology (required).
	G *topology.Graph
	// Proto is the protocol under test.
	Proto Protocol
	// Params is the simulation timing model (DefaultParams if zero).
	Params sim.Params
	// Script is the failure workload; flows inject relative to its start.
	Script scenario.Script
	// Flows is the number of flows per source AS; each flow contributes
	// one packet per tick (default 1).
	Flows int
	// Tick is the virtual-time sampling interval (default 25ms).
	Tick time.Duration
	// Ticks is the number of samples after the first event (default
	// 2400, a 60s window).
	Ticks int
	// Seed drives engine randomness (delays, MRAI jitter, lock picks).
	Seed int64
	// BluePick overrides STAMP's locked blue provider choice (nil for
	// random; the sim-vs-emu parity path uses core.FirstBluePicker to
	// match the live fleet).
	BluePick core.BluePicker
	// Cost, when non-nil, attaches a link latency/loss model: walks
	// report end-to-end path latency, the curve gains the user-latency
	// series, and link-quality script events (degrade/gray/clear) are
	// forwarded to the model when it implements
	// scenario.QualityExecutor. The model must change only through
	// those events: RunSim re-samples the data plane only after ticks
	// during which the engine executed something. Required for
	// STAMPSteer.
	Cost LinkCost
	// TimeoutMs is the perceived latency of a lost packet in the
	// user-latency accounting (default DefaultTimeoutMs). Cost runs only.
	TimeoutMs float64
	// Steer is the color-steering policy (required for STAMPSteer,
	// ignored otherwise). internal/steer.Policy implements it.
	Steer Steerer
	// Context, when non-nil, interrupts the run on cancellation: the
	// engine polls it every few thousand events, the sampling loop at
	// every tick.
	Context context.Context
}

func (o SimOpts) withDefaults() SimOpts {
	if o.Params == (sim.Params{}) {
		o.Params = sim.DefaultParams()
	}
	if o.Flows <= 0 {
		o.Flows = DefaultFlows
	}
	if o.Tick <= 0 {
		o.Tick = DefaultTick
	}
	if o.Ticks <= 0 {
		o.Ticks = DefaultTicks
	}
	if o.TimeoutMs <= 0 {
		o.TimeoutMs = DefaultTimeoutMs
	}
	return o
}

// RunSim converges the protocol, then replays the script while sampling
// the data plane at virtual-time ticks: at each tick during which the
// simulation did anything, the forwarding tables are flattened and the
// batched walker classifies all sources in one pass; a tick during
// which the engine executed no event re-observes the previous
// classification, which is still exact. After the last tick the engine
// drains to full convergence and the final deliverability is recorded.
//
// For STAMPSteer the sampling loop additionally drives the steering
// policy: each tick first classifies the data plane under the colors
// the policy chose on the *previous* tick (decisions always lag
// detection by one sample, as they would in deployment), then feeds the
// policy this tick's forced all-red and all-blue path measurements so
// it can re-decide for the next tick. Here too a tick re-walks only
// what may have moved: the classification when the engine ran or the
// colors changed, the forced walks when the engine ran.
func RunSim(o SimOpts) (*Curve, error) { return runSim(o, &simProbe{}) }

// simProbe is the tests' window into the sampling loop.
type simProbe struct {
	// everyTick classifies, and re-runs the steering arm's forced walks,
	// on idle ticks too: the reference the change-driven loop is
	// compared against.
	everyTick bool
	// classified counts the ticks that ran the walker, busy the ticks
	// during which the engine executed events, forced the ticks that
	// re-ran the steering arm's forced walks.
	classified, busy, forced int
	// sampled, when non-nil, sees every fresh classification — each
	// tick's in RunSim, each coalesced sweep's in a transient trial —
	// while the engine is still paused on the state it was taken from.
	sampled func(in *instance, w *Walk)
}

func runSim(o SimOpts, probe *simProbe) (*Curve, error) {
	if o.G == nil {
		return nil, fmt.Errorf("traffic: nil topology")
	}
	o = o.withDefaults()
	if o.Proto == STAMPSteer {
		if o.Cost == nil {
			return nil, fmt.Errorf("traffic: STAMP-steer requires a link-cost model (SimOpts.Cost)")
		}
		if o.Steer == nil {
			return nil, fmt.Errorf("traffic: STAMP-steer requires a steering policy (SimOpts.Steer)")
		}
	}
	in := newInstance(o.Proto, o.G, o.Params, o.Seed, o.Script.Dest, o.BluePick)
	in.setCost(o.Cost)
	in.steer = o.Steer
	if o.Context != nil {
		in.e.SetCancel(o.Context)
	}
	if _, err := in.e.Run(); err != nil {
		return nil, fmt.Errorf("traffic: initial convergence: %w", err)
	}

	if o.Proto == STAMPSteer {
		// Seed the policy's static baselines from the healthy converged
		// plane; the starting assignment is the nodes' own preference,
		// so a policy that never switches IS color-locked STAMP.
		in.forcedWalks()
		o.Steer.Init(in.wr.LatMs, in.wr.LossP, in.wb.LatMs, in.wb.LossP, in.stamp.Pref)
	}

	baseline := &Walk{}
	in.classify(baseline)

	cur, err := newCurve(o.Proto, o.Flows, o.Ticks, o.Tick, o.G.Len())
	if err != nil {
		return nil, err
	}
	if o.Cost != nil {
		if err := cur.enableUserLat(o.TimeoutMs); err != nil {
			return nil, err
		}
	}

	// Schedule the script's events at their virtual-time offsets.
	t0 := in.e.Now()
	var evErr error
	for _, ev := range o.Script.Sorted() {
		ev := ev
		in.e.After(ev.At, func() {
			if err := scenario.Apply(in, ev); err != nil && evErr == nil {
				evErr = fmt.Errorf("traffic: applying %v: %w", ev, err)
			}
		})
	}

	w := &Walk{}
	var colors []uint8 // the steering colors the last classification used
	for i := 1; i <= o.Ticks; i++ {
		if o.Context != nil {
			if err := o.Context.Err(); err != nil {
				return nil, fmt.Errorf("traffic: run canceled at tick %d: %w", i, err)
			}
		}
		ran, err := in.e.RunUntil(t0 + time.Duration(i)*o.Tick)
		if err != nil {
			return nil, fmt.Errorf("traffic: tick %d: %w", i, err)
		}
		if evErr != nil {
			return nil, evErr
		}
		if ran > 0 {
			probe.busy++
		}
		// Every mutation of node, network and cost-model state happens
		// inside an engine event, so a tick that executed none leaves
		// the previous walk exact. The steering policy re-colors sources
		// between ticks, outside the engine: its arm also re-walks when
		// the colors moved.
		recolored := false
		if o.Proto == STAMPSteer {
			if c := in.steer.Colors(); !slices.Equal(c, colors) {
				colors = append(colors[:0], c...)
				recolored = true
			}
		}
		fresh := ran > 0 || i == 1 || recolored || probe.everyTick
		if fresh {
			in.classify(w)
			probe.classified++
			if probe.sampled != nil {
				probe.sampled(in, w)
			}
		}
		cur.observe(i, w, baseline, fresh)
		if o.Proto == STAMPSteer {
			rewalk := ran > 0 || probe.everyTick
			if rewalk {
				probe.forced++
			}
			in.steerStep(rewalk)
		}
	}
	if _, err := in.e.Run(); err != nil {
		return nil, fmt.Errorf("traffic: failure convergence: %w", err)
	}
	if evErr != nil {
		return nil, evErr
	}
	in.classify(&cur.Final)
	cur.finish()
	return cur, nil
}

// Transient is the outcome of one transient trial.
type Transient struct {
	// Affected counts ASes that experienced a transient problem and are
	// fine once converged.
	Affected int
	// Convergence is the time from failure injection to the last routing
	// change.
	Convergence time.Duration
	// Updates and Withdrawals count messages during failure convergence;
	// InitialUpdates counts initial route propagation.
	Updates        int64
	Withdrawals    int64
	InitialUpdates int64
	// Stretch is the trial's mean post-convergence path stretch relative
	// to the pre-failure paths; StretchValid is false when no source
	// qualified (e.g. the destination became unreachable everywhere).
	Stretch      float64
	StretchValid bool
}

// RunTransientTrial is the trial behind Figures 2 and 3. It converges
// the protocol, executes the workload script — every event at its
// virtual-time offset, restores included — sweeps the data plane
// throughout re-convergence, and counts ASes that both experienced a
// transient problem and are fine once converged (problems of
// permanently disconnected ASes are not transient). Where RunSim
// samples at ticks, a transient trial observes after route events.
func RunTransientTrial(ctx context.Context, g *topology.Graph, params sim.Params, proto Protocol, script scenario.Script, seed int64) (Transient, error) {
	return runTransientTrial(ctx, g, params, proto, script, seed, &simProbe{})
}

func runTransientTrial(ctx context.Context, g *topology.Graph, params sim.Params, proto Protocol, script scenario.Script, seed int64, probe *simProbe) (Transient, error) {
	if proto == STAMPSteer {
		return Transient{}, fmt.Errorf("traffic: %v has no transient trial (it needs a link-cost model and a policy)", proto)
	}
	in := newInstance(proto, g, params, seed, script.Dest, nil)
	in.e.SetCancel(ctx)
	if _, err := in.e.Run(); err != nil {
		return Transient{}, fmt.Errorf("initial convergence: %w", err)
	}
	initialUpd, _ := in.messageCounts()
	baseline, w := &Walk{}, &Walk{}
	in.classify(baseline)

	affected := make([]bool, g.Len())
	var lastChange time.Duration
	// Data-plane sweeps are coalesced: the first route event schedules a
	// sweep shortly afterwards, and further events before it fires are
	// folded in. This bounds classification work on exploration-heavy
	// trials while still observing every inter-burst state (routing state
	// only changes at events).
	const sweepLag = time.Millisecond
	sweepScheduled := false
	t0 := in.e.Now()
	events := script.Sorted()
	// Problems are only counted once the ASes adjacent to the first
	// event have had time to detect it (Theorem 5.1's accounting):
	// detection notifications arrive within MaxDelay of the event.
	countFrom := t0 + params.MaxDelay + sweepLag
	if len(events) > 0 {
		countFrom += events[0].At
	}
	in.watch(func() {
		if sweepScheduled {
			return
		}
		sweepScheduled = true
		in.e.After(sweepLag, func() {
			sweepScheduled = false
			if in.e.Now() < countFrom {
				return
			}
			in.classify(w)
			if probe.sampled != nil {
				probe.sampled(in, w)
			}
			for a, s := range w.Status {
				if s != Delivered {
					affected[a] = true
				}
			}
		})
	}, func() { lastChange = in.e.Now() })
	lastChange = t0
	// Offset-zero events apply synchronously — preserving the event and
	// RNG order of a failure set injected at once — and later ones
	// (restores, subsequent flap rounds) are scheduled on the engine.
	var evErr error
	for _, ev := range events {
		if ev.At <= 0 {
			if err := scenario.Apply(in, ev); err != nil {
				return Transient{}, err
			}
			continue
		}
		ev := ev
		in.e.After(ev.At, func() {
			if err := scenario.Apply(in, ev); err != nil && evErr == nil {
				evErr = fmt.Errorf("applying %v: %w", ev, err)
			}
		})
	}
	if _, err := in.e.Run(); err != nil {
		return Transient{}, fmt.Errorf("failure convergence: %w", err)
	}
	if evErr != nil {
		return Transient{}, evErr
	}

	in.classify(w)
	upd, wd := in.messageCounts()
	out := Transient{
		Convergence:    lastChange - t0,
		Updates:        upd - initialUpd,
		Withdrawals:    wd,
		InitialUpdates: initialUpd,
	}
	sum, qualified := 0.0, 0
	for a, s := range w.Status {
		if s != Delivered {
			continue
		}
		if affected[a] {
			out.Affected++
		}
		if baseline.Status[a] == Delivered && baseline.Hops[a] > 0 {
			sum += float64(w.Hops[a]) / float64(baseline.Hops[a])
			qualified++
		}
	}
	if qualified > 0 {
		out.Stretch, out.StretchValid = sum/float64(qualified), true
	}
	return out, nil
}

// FailLink implements scenario.Executor.
// Link liveness changes only here, so these mark the endpoints for the
// next snapshot.
func (in *instance) FailLink(a, b topology.ASN) error {
	in.mark(a)
	in.mark(b)
	return in.net.FailLink(a, b)
}

// RestoreLink implements scenario.Executor.
func (in *instance) RestoreLink(a, b topology.ASN) error {
	in.mark(a)
	in.mark(b)
	return in.net.RestoreLink(a, b)
}

// FailNode implements scenario.Executor.
func (in *instance) FailNode(a topology.ASN) error {
	in.mark(a)
	for _, b := range in.g.Neighbors(nil, a) {
		in.mark(b)
	}
	in.net.FailNode(a)
	return nil
}

// Withdraw implements scenario.Executor.
func (in *instance) Withdraw(d topology.ASN) error {
	switch in.proto {
	case BGP:
		in.bgpNodes[d].WithdrawOrigin()
	case RBGPNoRCI, RBGP:
		in.rbgpNodes[d].WithdrawOrigin()
	case STAMP, STAMPSteer:
		in.stampNodes[d].WithdrawOrigin()
	}
	return nil
}

// DegradeLink implements scenario.QualityExecutor by forwarding to the
// link-cost model when it carries quality state; without a model the
// event is the designed no-op (quality damage is control-plane
// invisible, and a cost-free run has no data plane to hurt).
func (in *instance) DegradeLink(a, b topology.ASN, mult float64) error {
	if q, ok := in.cost.(scenario.QualityExecutor); ok {
		return q.DegradeLink(a, b, mult)
	}
	return nil
}

// GrayLink implements scenario.QualityExecutor.
func (in *instance) GrayLink(a, b topology.ASN, rate float64) error {
	if q, ok := in.cost.(scenario.QualityExecutor); ok {
		return q.GrayLink(a, b, rate)
	}
	return nil
}

// ClearLink implements scenario.QualityExecutor.
func (in *instance) ClearLink(a, b topology.ASN) error {
	if q, ok := in.cost.(scenario.QualityExecutor); ok {
		return q.ClearLink(a, b)
	}
	return nil
}
