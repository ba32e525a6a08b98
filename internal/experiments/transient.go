package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"stamp/internal/metrics"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/topology"
	"stamp/internal/traffic"
)

// Scenario selects the failure workload of §6.2. The type (and the
// workload picker behind it) lives in internal/scenario so the live
// emulation (internal/emu) consumes the exact same definitions.
type Scenario = scenario.Kind

const (
	// ScenarioSingleLink fails one provider link of the (multi-homed)
	// destination AS — Figure 2.
	ScenarioSingleLink = scenario.SingleLink
	// ScenarioTwoLinksApart fails a provider link of the destination and
	// an indirect provider link multiple hops away, not sharing any AS —
	// Figure 3(a).
	ScenarioTwoLinksApart = scenario.TwoLinksApart
	// ScenarioTwoLinksShared fails a provider link of the destination and
	// a provider link of that same provider — Figure 3(b).
	ScenarioTwoLinksShared = scenario.TwoLinksShared
	// ScenarioNodeFailure fails an entire provider AS of the destination
	// (the paper's single-node-failure variant).
	ScenarioNodeFailure = scenario.NodeFailure
	// ScenarioLinkFlap repeatedly fails and restores one destination
	// provider link. Like every other kind it runs everywhere: the
	// transient and sweep harnesses execute the same canonical Script
	// form (scenario.ScriptFor) the loss curves and live emulation use,
	// restores included.
	ScenarioLinkFlap = scenario.LinkFlap
)

// Seed-derivation stream labels. Workload randomness (which failure to
// inject) is shared by all protocols of a trial so they face the same
// event; engine randomness (delays, MRAI jitter) is private per
// (trial, protocol).
const (
	streamWorkload int64 = iota + 1
	streamEngine
)

// TransientOpts configures a transient-problem experiment.
type TransientOpts struct {
	// G is the AS topology.
	G *topology.Graph
	// Params is the simulation timing model (DefaultParams if zero).
	Params sim.Params
	// Trials is the number of random destination/failure instances
	// (the paper uses 100).
	Trials int
	// Seed is the master seed; every trial derives its own seeds from it,
	// so results do not depend on Workers.
	Seed int64
	// Scenario is the failure workload.
	Scenario Scenario
	// Protocols under test (AllProtocols if nil).
	Protocols []Protocol
	// Workers sizes the trial worker pool (<= 0: one per CPU).
	Workers int
	// Progress, when non-nil, receives (done, total) shard counts as the
	// sweep advances.
	Progress func(done, total int)
	// Context cancels the run: dispatch stops and in-flight trials are
	// interrupted at their engines (nil = background).
	Context context.Context
}

// normalized fills defaults, leaving opts itself untouched.
func (o TransientOpts) normalized() TransientOpts {
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Params == (sim.Params{}) {
		o.Params = sim.DefaultParams()
	}
	if o.Protocols == nil {
		o.Protocols = AllProtocols()
	}
	return o
}

// ProtocolStats aggregates one protocol's results over all trials.
type ProtocolStats struct {
	// MeanAffected is the average number of ASes experiencing transient
	// problems per trial — the paper's figures 2 and 3 metric.
	MeanAffected float64
	// MeanConvergence is the average time from failure injection to the
	// last routing change.
	MeanConvergence time.Duration
	// MeanUpdates / MeanWithdrawals are the average message counts during
	// failure convergence.
	MeanUpdates     float64
	MeanWithdrawals float64
	// InitialUpdates is the average message count of initial route
	// propagation (used by the overhead experiment).
	InitialUpdates float64
	// MeanStretch is the average post-convergence path stretch: the
	// unweighted mean over trials of each trial's per-source mean of
	// (delivered hop count / pre-failure hop count), over sources
	// delivered in both states (0 when no trial produced a qualifying
	// source). Trials contribute equally regardless of how many sources
	// qualified.
	MeanStretch float64
	// Affected holds per-trial affected counts, in trial order, for
	// distribution analysis.
	Affected []int
	// AffectedHist is the distribution of per-trial affected counts in
	// power-of-two buckets sized to the topology.
	AffectedHist *metrics.Histogram
}

// TransientResult is the outcome of RunTransient.
type TransientResult struct {
	Scenario Scenario
	Trials   int
	Stats    map[Protocol]*ProtocolStats
}

// TrialOutcome is the result of one (trial, protocol) shard of a
// transient experiment — the runner's unit of work.
type TrialOutcome struct {
	// Trial is the failure instance index; Proto is the protocol that
	// faced it.
	Trial int
	Proto Protocol
	traffic.Transient
}

// TransientSpec expresses the transient experiment as enumerable runner
// shards, one per (trial, protocol) pair ordered trial-major. The
// workload of trial t is derived from (Seed, streamWorkload, t) — shared
// by all protocols of that trial — and each shard's engine seed from
// (Seed, streamEngine, t, protocol), so any shard can run on any worker
// in any order. Defaults (trial count, params, protocols) are filled as
// in RunTransient.
func TransientSpec(opts TransientOpts) (runner.Spec[TrialOutcome], error) {
	if opts.G == nil {
		return runner.Spec[TrialOutcome]{}, fmt.Errorf("experiments: nil topology")
	}
	opts = opts.normalized()
	multihomed := scenario.Multihomed(opts.G)
	protos := opts.Protocols
	return runner.Spec[TrialOutcome]{
		Name:   fmt.Sprintf("transient(%v)", opts.Scenario),
		Trials: opts.Trials * len(protos),
		Seed:   opts.Seed,
		Run: func(t runner.Trial) (TrialOutcome, error) {
			trial := t.Index / len(protos)
			proto := protos[t.Index%len(protos)]
			return runTransientShard(t.Ctx, opts.G, opts.Params, opts.Scenario, multihomed,
				trial, proto,
				runner.DeriveSeed(opts.Seed, streamWorkload, int64(trial)),
				runner.DeriveSeed(opts.Seed, streamEngine, int64(trial), int64(proto)))
		},
	}, nil
}

// runTransientShard regenerates trial's workload from wlSeed — in
// canonical Script form, so restores (link flaps) work exactly like
// plain failures — and runs one protocol through it with engSeed driving
// the engine.
func runTransientShard(ctx context.Context, g *topology.Graph, params sim.Params, sc Scenario, multihomed []topology.ASN,
	trial int, proto Protocol, wlSeed, engSeed int64) (TrialOutcome, error) {
	script, err := scenario.PickScript(g, multihomed, sc, rand.New(rand.NewSource(wlSeed)))
	if err != nil {
		return TrialOutcome{}, err
	}
	out, err := traffic.RunTransientTrial(ctx, g, params, proto, script, engSeed)
	if err != nil {
		return TrialOutcome{}, fmt.Errorf("%v trial %d: %w", proto, trial, err)
	}
	return TrialOutcome{Trial: trial, Proto: proto, Transient: out}, nil
}

// affectedBuckets sizes power-of-two histogram buckets to the topology so
// every shard of a run builds mergeable histograms.
func affectedBuckets(n int) []float64 {
	k := 1
	for v := 1; v < n; v *= 2 {
		k++
	}
	return metrics.ExpBuckets(1, 2, k)
}

// transientAccum folds TrialOutcome shards into per-protocol aggregates.
// The runner merges strictly in shard order, so Affected slices and
// float sums come out identical for any worker count.
type transientAccum struct {
	buckets []float64
	stats   map[Protocol]*protoAccum
	protos  []Protocol
}

type protoAccum struct {
	affected, convergence, updates, withdrawals, initial, stretch metrics.Accum
	perTrial                                                      []int
	hist                                                          *metrics.Histogram
}

func newTransientAccum(opts TransientOpts) *transientAccum {
	a := &transientAccum{
		buckets: affectedBuckets(opts.G.Len()),
		stats:   make(map[Protocol]*protoAccum, len(opts.Protocols)),
		protos:  opts.Protocols,
	}
	for _, p := range opts.Protocols {
		h, err := metrics.NewHistogram(a.buckets...)
		if err != nil {
			// affectedBuckets always yields >= 1 increasing bound.
			panic(err)
		}
		a.stats[p] = &protoAccum{hist: h}
	}
	return a
}

func (a *transientAccum) merge(out TrialOutcome) *transientAccum {
	st := a.stats[out.Proto]
	st.perTrial = append(st.perTrial, out.Affected)
	st.affected.Add(float64(out.Affected))
	st.hist.Observe(float64(out.Affected))
	st.convergence.Add(float64(out.Convergence))
	st.updates.Add(float64(out.Updates))
	st.withdrawals.Add(float64(out.Withdrawals))
	st.initial.Add(float64(out.InitialUpdates))
	if out.StretchValid {
		st.stretch.Add(out.Stretch)
	}
	return a
}

func (a *transientAccum) result(sc Scenario, trials int) *TransientResult {
	res := &TransientResult{Scenario: sc, Trials: trials, Stats: make(map[Protocol]*ProtocolStats, len(a.protos))}
	for _, p := range a.protos {
		st := a.stats[p]
		ps := &ProtocolStats{
			MeanAffected:    st.affected.Mean(),
			MeanUpdates:     st.updates.Mean(),
			MeanWithdrawals: st.withdrawals.Mean(),
			InitialUpdates:  st.initial.Mean(),
			Affected:        st.perTrial,
			AffectedHist:    st.hist,
		}
		if m := st.convergence.Mean(); !math.IsNaN(m) {
			ps.MeanConvergence = time.Duration(m)
		}
		if m := st.stretch.Mean(); !math.IsNaN(m) {
			ps.MeanStretch = m
		}
		res.Stats[p] = ps
	}
	return res
}

// RunTransient measures the number of ASes experiencing transient routing
// problems for each protocol under the given failure scenario, averaged
// over Trials random instances — the harness behind Figures 2 and 3.
// Shards run on opts.Workers goroutines; the aggregated result is
// bit-identical for any worker count.
func RunTransient(opts TransientOpts) (*TransientResult, error) {
	if opts.G == nil {
		return nil, fmt.Errorf("experiments: nil topology")
	}
	opts = opts.normalized()
	spec, err := TransientSpec(opts)
	if err != nil {
		return nil, err
	}
	acc, err := runner.Fold(spec, runner.Options{Workers: opts.Workers, Progress: opts.Progress, Context: opts.Context},
		newTransientAccum(opts),
		func(a *transientAccum, _ runner.Trial, out TrialOutcome) *transientAccum { return a.merge(out) })
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return acc.result(opts.Scenario, opts.Trials), nil
}
