package lab

import (
	"context"
	"fmt"
	"io"
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

// Seed-derivation stream labels. Workload randomness (which failure to
// inject) is shared by all protocols of a trial so they face the same
// event; engine randomness (delays, MRAI jitter) is private per
// (trial, protocol).
const (
	streamWorkload int64 = iota + 1
	streamEngine
)

// TransientOpts configures a transient-problem run on a given graph:
// the entry point the registry's transient experiments, the MRAI
// ablation, the examples and the benchmarks share.
type TransientOpts struct {
	// G is the AS topology.
	G *topology.Graph
	// Params is the simulation timing model (DefaultParams if zero).
	Params sim.Params
	// Trials is the number of random destination/failure instances
	// (the paper uses 100; <= 0: 1).
	Trials int
	// Seed is the master seed; every trial derives its own seeds from it,
	// so results do not depend on Workers.
	Seed int64
	// Scenario is the failure workload.
	Scenario scenario.Kind
	// Protocols under test (traffic.AllProtocols if nil).
	Protocols []traffic.Protocol
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
		o.Protocols = traffic.AllProtocols()
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
	Scenario scenario.Kind
	Trials   int
	Stats    map[traffic.Protocol]*ProtocolStats
}

// trialOutcome is the result of one (trial, protocol) shard of a
// transient run — the runner's unit of work.
type trialOutcome struct {
	// Trial is the failure instance index; Proto is the protocol that
	// faced it.
	Trial int
	Proto traffic.Protocol
	traffic.Transient
}

// transientSpec expresses a transient run as enumerable runner shards,
// one per (trial, protocol) pair ordered trial-major. The workload of
// trial t is derived from (Seed, streamWorkload, t) — shared by all
// protocols of that trial — and each shard's engine seed from (Seed,
// streamEngine, t, protocol), so any shard can run on any worker in any
// order. opts must be normalized.
func transientSpec(opts TransientOpts) runner.Spec[trialOutcome] {
	multihomed := scenario.Multihomed(opts.G)
	protos := opts.Protocols
	return runner.Spec[trialOutcome]{
		Name:   fmt.Sprintf("transient(%v)", opts.Scenario),
		Trials: opts.Trials * len(protos),
		Seed:   opts.Seed,
		Run: func(t runner.Trial) (trialOutcome, error) {
			trial := t.Index / len(protos)
			proto := protos[t.Index%len(protos)]
			return runTransientShard(t.Ctx, opts.G, opts.Params, opts.Scenario, multihomed,
				trial, proto,
				runner.DeriveSeed(opts.Seed, streamWorkload, int64(trial)),
				runner.DeriveSeed(opts.Seed, streamEngine, int64(trial), int64(proto)))
		},
	}
}

// runTransientShard regenerates trial's workload from wlSeed — in
// canonical Script form, so restores (link flaps) work exactly like
// plain failures — and runs one protocol through it with engSeed driving
// the engine.
func runTransientShard(ctx context.Context, g *topology.Graph, params sim.Params, sc scenario.Kind, multihomed []topology.ASN,
	trial int, proto traffic.Protocol, wlSeed, engSeed int64) (trialOutcome, error) {
	script, err := scenario.PickScript(g, multihomed, sc, rand.New(rand.NewSource(wlSeed)))
	if err != nil {
		return trialOutcome{}, err
	}
	out, err := traffic.RunTransientTrial(ctx, g, params, proto, script, engSeed)
	if err != nil {
		return trialOutcome{}, fmt.Errorf("%v trial %d: %w", proto, trial, err)
	}
	return trialOutcome{Trial: trial, Proto: proto, Transient: out}, nil
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

// transientAccum folds trialOutcome shards into per-protocol aggregates.
// The runner merges strictly in shard order, so Affected slices and
// float sums come out identical for any worker count.
type transientAccum struct {
	stats  map[traffic.Protocol]*protoAccum
	protos []traffic.Protocol
}

type protoAccum struct {
	affected, convergence, updates, withdrawals, initial, stretch metrics.Accum
	perTrial                                                      []int
	hist                                                          *metrics.Histogram
}

// newTransientAccum sizes the accumulator to an n-AS topology.
func newTransientAccum(n int, protos []traffic.Protocol) *transientAccum {
	a := &transientAccum{stats: make(map[traffic.Protocol]*protoAccum, len(protos)), protos: protos}
	for _, p := range protos {
		h, err := metrics.NewHistogram(affectedBuckets(n)...)
		if err != nil {
			// affectedBuckets always yields >= 1 increasing bound.
			panic(err)
		}
		a.stats[p] = &protoAccum{hist: h}
	}
	return a
}

func (a *transientAccum) merge(out trialOutcome) *transientAccum {
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

func (a *transientAccum) result(sc scenario.Kind, trials int) *TransientResult {
	res := &TransientResult{Scenario: sc, Trials: trials, Stats: make(map[traffic.Protocol]*ProtocolStats, len(a.protos))}
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
		return nil, fmt.Errorf("transient: nil topology")
	}
	opts = opts.normalized()
	acc, err := runner.Fold(transientSpec(opts), runner.Options{Workers: opts.Workers, Progress: opts.Progress, Context: opts.Context},
		newTransientAccum(opts.G.Len(), opts.Protocols),
		func(a *transientAccum, _ runner.Trial, out trialOutcome) *transientAccum { return a.merge(out) })
	if err != nil {
		return nil, err
	}
	return acc.result(opts.Scenario, opts.Trials), nil
}

// paperAffected holds the paper's reported mean affected-AS counts for
// annotation in the rendered tables (absolute values are topology-bound;
// the ordering and rough ratios are what the reproduction targets).
var paperAffected = map[scenario.Kind]map[traffic.Protocol]int{
	scenario.SingleLink: {
		traffic.BGP: 6604, traffic.RBGPNoRCI: 2097, traffic.RBGP: 0, traffic.STAMP: 357,
	},
	scenario.TwoLinksApart: {
		traffic.BGP: 10314, traffic.RBGPNoRCI: 4242, traffic.RBGP: 861, traffic.STAMP: 845,
	},
	scenario.TwoLinksShared: {
		traffic.BGP: 12071, traffic.RBGPNoRCI: 3803, traffic.RBGP: 761, traffic.STAMP: 366,
	},
}

// Print renders the transient-problem table in the paper's presentation
// order, annotated with the paper's own numbers when available.
func (r *TransientResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Transient problems under %v (%d trials)\n", r.Scenario, r.Trials)
	t := metrics.NewTable("protocol", "mean affected ASes", "paper", "mean convergence", "updates", "withdrawals", "stretch")
	paper := paperAffected[r.Scenario]
	for _, p := range traffic.AllProtocols() {
		st, ok := r.Stats[p]
		if !ok {
			continue
		}
		paperCell := "-"
		if v, ok := paper[p]; ok {
			paperCell = fmt.Sprintf("%d", v)
		}
		stretch := "-"
		if st.MeanStretch != 0 {
			stretch = fmt.Sprintf("%.3f", st.MeanStretch)
		}
		t.AddRow(
			p.String(),
			fmt.Sprintf("%.1f", st.MeanAffected),
			paperCell,
			st.MeanConvergence.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", st.MeanUpdates),
			fmt.Sprintf("%.0f", st.MeanWithdrawals),
			stretch,
		)
	}
	// Render errors are impossible on the writers used here; surface them
	// anyway rather than swallow.
	if err := t.Render(w); err != nil {
		fmt.Fprintf(w, "render error: %v\n", err)
	}
}

// OverheadResult captures the §6.3 message overhead comparison.
type OverheadResult struct {
	// BGPUpdates and STAMPUpdates are mean update counts for initial
	// route propagation.
	BGPUpdates, STAMPUpdates float64
	// Ratio is STAMP/BGP (paper: < 2).
	Ratio float64
	// FailureBGP and FailureSTAMP are mean update counts during failure
	// convergence.
	FailureBGP, FailureSTAMP float64
	// FailureRatio is the failure-phase ratio.
	FailureRatio float64
}

// Overhead derives the overhead comparison from a transient result that
// includes both BGP and STAMP.
func (r *TransientResult) Overhead() (*OverheadResult, error) {
	b, okB := r.Stats[traffic.BGP]
	s, okS := r.Stats[traffic.STAMP]
	if !okB || !okS {
		return nil, fmt.Errorf("overhead needs both BGP and STAMP runs")
	}
	o := &OverheadResult{
		BGPUpdates:   b.InitialUpdates,
		STAMPUpdates: s.InitialUpdates,
		FailureBGP:   b.MeanUpdates,
		FailureSTAMP: s.MeanUpdates,
	}
	if b.InitialUpdates > 0 {
		o.Ratio = s.InitialUpdates / b.InitialUpdates
	}
	if b.MeanUpdates > 0 {
		o.FailureRatio = s.MeanUpdates / b.MeanUpdates
	}
	return o, nil
}

// Print renders the overhead comparison.
func (o *OverheadResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Protocol message overhead — STAMP vs BGP")
	fmt.Fprintf(w, "  initial propagation: BGP %.0f, STAMP %.0f updates (ratio %.2f; paper: < 2)\n",
		o.BGPUpdates, o.STAMPUpdates, o.Ratio)
	fmt.Fprintf(w, "  failure convergence: BGP %.0f, STAMP %.0f updates (ratio %.2f)\n",
		o.FailureBGP, o.FailureSTAMP, o.FailureRatio)
}

// ConvergenceResult captures the §6.3 convergence delay comparison.
type ConvergenceResult struct {
	BGP, STAMP time.Duration
}

// Convergence derives the convergence comparison from a transient result.
func (r *TransientResult) Convergence() (*ConvergenceResult, error) {
	b, okB := r.Stats[traffic.BGP]
	s, okS := r.Stats[traffic.STAMP]
	if !okB || !okS {
		return nil, fmt.Errorf("convergence needs both BGP and STAMP runs")
	}
	return &ConvergenceResult{BGP: b.MeanConvergence, STAMP: s.MeanConvergence}, nil
}

// Print renders the convergence comparison.
func (c *ConvergenceResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Convergence delay after a single link failure")
	fmt.Fprintf(w, "  BGP  : %v\n", c.BGP.Round(time.Millisecond))
	fmt.Fprintf(w, "  STAMP: %v (paper: STAMP converges faster than BGP)\n", c.STAMP.Round(time.Millisecond))
}
