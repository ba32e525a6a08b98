package lab

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"stamp/internal/core"
	"stamp/internal/disjoint"
	"stamp/internal/metrics"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/topology"
	"stamp/internal/traffic"
)

// The registry: every harness of the paper's evaluation (plus the
// beyond-paper sweep, loss, and live-emulation workloads) as one entry
// each, running straight from the Request.
func init() {
	transientFlags := []string{"trials", "protocol"}
	Register(Experiment{
		Name: "transient", Desc: "transient routing problems per protocol under a failure scenario (Figures 2–3 harness)",
		DefaultScenario: "single-link",
		Flags:           append([]string{"scenario"}, transientFlags...),
		Run:             runTransient,
	})
	for _, p := range []struct{ name, scenario, desc string }{
		{"figure2", "single-link", "Figure 2: transient problems under a single link failure"},
		{"figure3a", "two-links-apart", "Figure 3(a): transient problems under two distant link failures"},
		{"figure3b", "two-links-shared", "Figure 3(b): transient problems under two link failures sharing an AS"},
		{"node-failure", "node-failure", "transient problems when an entire provider AS fails"},
	} {
		Register(Experiment{
			Name: p.name, Desc: p.desc, DefaultScenario: p.scenario,
			Flags: transientFlags,
			Run:   runTransient,
		})
	}
	Register(Experiment{
		Name: "sweep", Desc: "topology-seed × scenario transient grid on one shared worker pool",
		Flags: []string{"trials", "scenario", "protocol", "topo-seeds"},
		Run:   runSweep,
	})
	Register(Experiment{
		Name: "figure1", Desc: "Figure 1: CDF of path disjointness Φ (random blue-provider selection)",
		Run: func(req Request) (*Result, error) { return runFigure1(req, false) },
	})
	Register(Experiment{
		Name: "figure1-intelligent", Desc: "Figure 1: CDF of Φ with intelligent blue-provider selection",
		Run: func(req Request) (*Result, error) { return runFigure1(req, true) },
	})
	Register(Experiment{
		Name: "partial", Desc: "§6.3 partial deployment: STAMP at tier-1 ASes only",
		Run: runPartial,
	})
	Register(Experiment{
		Name: "overhead", Desc: "§6.3 message overhead: STAMP vs BGP update counts",
		Flags: []string{"trials"},
		Run: func(req Request) (*Result, error) {
			return bgpVsStamp(req, (*TransientResult).Overhead)
		},
	})
	Register(Experiment{
		Name: "convergence", Desc: "§6.3 convergence delay: STAMP vs BGP after a link failure",
		Flags: []string{"trials"},
		Run: func(req Request) (*Result, error) {
			return bgpVsStamp(req, (*TransientResult).Convergence)
		},
	})
	Register(Experiment{
		Name: "ablation/lock", Desc: "blue-route coverage with the Lock mechanism on vs off",
		Run: runLockAblation,
	})
	Register(Experiment{
		Name: "ablation/mrai", Desc: "BGP convergence and message cost with the MRAI timer on vs off",
		Flags: []string{"trials"},
		Run:   runMRAIAblation,
	})
	Register(Experiment{
		Name: "loss", Desc: "time-resolved packet loss curves (sim), or live sim-vs-emu deliverability parity (emu)",
		Backends:        []string{"sim", "emu"},
		DefaultN:        400,
		DefaultScenario: "link-failure",
		Flags:           []string{"backend", "trials", "scenario", "protocol", "flows", "tick", "ticks", "transport"},
		Run:             runLoss,
	})
	Register(Experiment{
		Name: "emu-converge", Desc: "scripted convergence on a live STAMP fleet, differentially validated against the simulator",
		Backends:        []string{"emu", "sim"},
		DefaultN:        200,
		DefaultScenario: "link-failure",
		Flags:           []string{"backend", "scenario", "transport", "diff", "quiet", "timeout"},
		Run:             runEmuConverge,
	})
}

// transient runs the transient harness on g with the request's trials,
// seed and worker pool.
func (r Request) transient(g *topology.Graph, kind scenario.Kind, params sim.Params, protos []traffic.Protocol) (*TransientResult, error) {
	return RunTransient(TransientOpts{
		G: g, Params: params, Trials: r.Trials, Seed: r.Seed, Scenario: kind,
		Protocols: protos, Workers: r.Workers, Progress: r.Progress, Context: r.ctx(),
	})
}

// runTransient is the body of transient and its figure presets, whose
// scenario Run pins.
func runTransient(req Request) (*Result, error) {
	kind, err := scenario.ParseKind(req.Scenario)
	if err != nil {
		return nil, err
	}
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	protos, err := req.protocols(false)
	if err != nil {
		return nil, err
	}
	res, err := req.transient(g, kind, sim.Params{}, protos)
	if err != nil {
		return nil, err
	}
	return req.envelope("sim", graphInfo(g), res), nil
}

// bgpVsStamp runs the single-link transient workload for BGP and STAMP
// only and reduces it — the §6.3 comparisons both derive from it.
func bgpVsStamp[T any](req Request, reduce func(*TransientResult) (T, error)) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	res, err := req.transient(g, scenario.SingleLink, sim.Params{}, []traffic.Protocol{traffic.BGP, traffic.STAMP})
	if err != nil {
		return nil, err
	}
	data, err := reduce(res)
	if err != nil {
		return nil, err
	}
	return req.envelope("sim", graphInfo(g), data), nil
}

// A sweep is the cross product the runner was built for: topology seed ×
// failure scenario × trial × protocol, flattened into one shard
// enumeration so a single worker pool saturates every core across the
// whole grid instead of parallelizing only within one cell. Workload and
// engine seeds are derived from (Seed, topoSeed, scenario, trial[, proto])
// — never from shard position in the flattened order — so adding a
// scenario or topology to the grid does not perturb the others' results.

// SweepCell is one (topology, scenario) cell of the grid.
type SweepCell struct {
	TopoSeed int64
	Scenario scenario.Kind
	Result   *TransientResult
}

// SweepResult is the full grid.
type SweepResult struct {
	// N is the per-topology AS count.
	N int
	// Trials is the per-cell trial count.
	Trials int
	// Cells are ordered topology-major, scenario-minor.
	Cells []*SweepCell
}

// sweepShard is one unit of sweep work, addressed by grid coordinates.
type sweepShard struct {
	cell int
	out  trialOutcome
}

// runSweep generates one topology per TopoSeed, then shards every
// (topology, scenario, trial, protocol) combination across one worker
// pool. An empty scenario runs the three link-failure workloads of
// Figures 2–3.
func runSweep(req Request) (*Result, error) {
	if req.Topo.Path != "" {
		// Silently generating synthetic graphs while the operator believes
		// their CAIDA file was measured would publish wrong numbers.
		return nil, fmt.Errorf("the sweep generates its own topologies from -n and -topo-seeds; -topo is not supported")
	}
	kinds := []scenario.Kind{scenario.SingleLink, scenario.TwoLinksApart, scenario.TwoLinksShared}
	if req.Scenario != "" {
		k, err := scenario.ParseKind(req.Scenario)
		if err != nil {
			return nil, err
		}
		kinds = []scenario.Kind{k}
	}
	protos, err := req.protocols(false)
	if err != nil {
		return nil, err
	}
	seeds := req.TopoSeeds
	graphs := make([]*topology.Graph, len(seeds))
	multihomed := make([][]topology.ASN, len(seeds))
	for i, ts := range seeds {
		g, err := topology.GenerateDefault(req.Topo.N, ts)
		if err != nil {
			return nil, fmt.Errorf("sweep topology seed %d: %w", ts, err)
		}
		graphs[i] = g
		multihomed[i] = scenario.Multihomed(g)
	}

	params := sim.DefaultParams()
	nCells := len(seeds) * len(kinds)
	perCell := req.Trials * len(protos)
	spec := runner.Spec[sweepShard]{
		Name:   "sweep",
		Trials: nCells * perCell,
		Seed:   req.Seed,
		Run: func(t runner.Trial) (sweepShard, error) {
			cell := t.Index / perCell
			rem := t.Index % perCell
			trial := rem / len(protos)
			proto := protos[rem%len(protos)]
			ti := cell / len(kinds)
			sc := kinds[cell%len(kinds)]
			topoSeed := seeds[ti]
			out, err := runTransientShard(t.Ctx, graphs[ti], params, sc, multihomed[ti],
				trial, proto,
				runner.DeriveSeed(req.Seed, topoSeed, int64(sc), streamWorkload, int64(trial)),
				runner.DeriveSeed(req.Seed, topoSeed, int64(sc), streamEngine, int64(trial), int64(proto)))
			if err != nil {
				return sweepShard{}, fmt.Errorf("topo %d, %v: %w", topoSeed, sc, err)
			}
			return sweepShard{cell: cell, out: out}, nil
		},
	}

	accs := make([]*transientAccum, nCells)
	for i := range accs {
		accs[i] = newTransientAccum(graphs[i/len(kinds)].Len(), protos)
	}
	_, err = runner.Fold(spec, req.runner(),
		accs, func(a []*transientAccum, _ runner.Trial, s sweepShard) []*transientAccum {
			a[s.cell].merge(s.out)
			return a
		})
	if err != nil {
		return nil, err
	}

	res := &SweepResult{N: req.Topo.N, Trials: req.Trials}
	for i, acc := range accs {
		sc := kinds[i%len(kinds)]
		res.Cells = append(res.Cells, &SweepCell{
			TopoSeed: seeds[i/len(kinds)],
			Scenario: sc,
			Result:   acc.result(sc, req.Trials),
		})
	}
	// The sweep builds its own grid of topologies; the envelope describes
	// the grid cell size rather than one loaded graph.
	return req.envelope("sim", TopoInfo{ASes: res.N}, res), nil
}

// Print renders per-cell rows plus a per-scenario summary averaged over
// topologies.
func (r *SweepResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Sweep — %d-AS topologies, %d trials per cell\n", r.N, r.Trials)
	t := metrics.NewTable("topo seed", "scenario", "protocol", "mean affected", "mean convergence", "updates")
	for _, c := range r.Cells {
		for _, p := range traffic.AllProtocols() {
			st, ok := c.Result.Stats[p]
			if !ok {
				continue
			}
			t.AddRow(
				fmt.Sprintf("%d", c.TopoSeed),
				c.Scenario.String(),
				p.String(),
				fmt.Sprintf("%.1f", st.MeanAffected),
				st.MeanConvergence.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", st.MeanUpdates),
			)
		}
	}
	if err := t.Render(w); err != nil {
		fmt.Fprintf(w, "render error: %v\n", err)
	}

	fmt.Fprintln(w, "\nPer-scenario aggregates over all topologies:")
	s := metrics.NewTable("scenario", "protocol", "mean affected", "pooled median", "pooled p90")
	type key struct {
		sc scenario.Kind
		p  traffic.Protocol
	}
	// Per-cell means average via Accum.Merge; the pooled trial-level
	// distribution needs the cells' histograms combined (all cells share
	// bucket bounds since every topology has N ASes), which per-cell means
	// cannot reconstruct.
	sums := make(map[key]*metrics.Accum)
	pooled := make(map[key]*metrics.Histogram)
	var order []key
	for _, c := range r.Cells {
		for _, p := range traffic.AllProtocols() {
			st, ok := c.Result.Stats[p]
			if !ok {
				continue
			}
			k := key{c.Scenario, p}
			if sums[k] == nil {
				sums[k] = &metrics.Accum{}
				order = append(order, k)
			}
			var cell metrics.Accum
			cell.Add(st.MeanAffected)
			sums[k].Merge(cell)
			if st.AffectedHist != nil {
				if pooled[k] == nil {
					// Fresh histogram with the cells' shared bucket layout,
					// so pooling never mutates a cell's own result.
					pooled[k], _ = metrics.NewHistogram(affectedBuckets(r.N)...)
				}
				if err := pooled[k].Merge(st.AffectedHist); err != nil {
					fmt.Fprintf(w, "histogram merge error: %v\n", err)
				}
			}
		}
	}
	for _, k := range order {
		med, p90 := "-", "-"
		if h := pooled[k]; h != nil && h.Total() > 0 {
			med = fmt.Sprintf("<=%.0f", h.Quantile(0.5))
			p90 = fmt.Sprintf("<=%.0f", h.Quantile(0.9))
		}
		s.AddRow(k.sc.String(), k.p.String(), fmt.Sprintf("%.1f", sums[k].Mean()), med, p90)
	}
	if err := s.Render(w); err != nil {
		fmt.Fprintf(w, "render error: %v\n", err)
	}
}

// Figure1Result captures the Φ disjointness experiment of §6.1.
type Figure1Result struct {
	// CDF is the empirical distribution of Φ over all destination ASes —
	// the curve of Figure 1.
	CDF *metrics.CDF
	// Mean is the average Φ (paper: ≈ 0.92 random, ≈ 0.97 intelligent).
	Mean float64
	// FracBelow07 is the fraction of destinations with Φ ≤ 0.7 (paper:
	// < 10%).
	FracBelow07 float64
	// FracAbove09 is the fraction of destinations with Φ > 0.9 (paper:
	// > 75%).
	FracAbove09 float64
	// Intelligent tells which selection strategy produced the result.
	Intelligent bool
}

// Φ is estimated per "anchor": a multi-homed AS whose value stands in for
// itself and every single-homed descendant that routes through it
// (footnote 4 of the paper; see disjoint.Anchors). Anchors are
// independent, so they are the enumerable unit the runner shards; each
// anchor's sampling RNG is seeded from disjoint.AnchorSeed — the same
// derivation disjoint.PhiAll uses — making the CDF independent of entry
// point, worker count, and chunking.

// anchorChunk is how many anchors one runner shard estimates. It is a
// fixed constant — never derived from the worker count — so the shard
// enumeration (and thus every derived seed) is identical for any pool
// size.
const anchorChunk = 16

// runFigure1 computes the CDF of Φ over all destination ASes, with
// random or intelligent (§6.1's claimed 92% → 97% improvement)
// locked-blue-provider selection: shards of anchorChunk anchors each,
// assembled into the per-destination Φ vector via the disjoint
// package's footnote-4 anchor mapping.
func runFigure1(req Request, intelligent bool) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	opts := disjoint.DefaultPhiOpts()
	counts := disjoint.UphillCounts(g)
	anchorOf, anchors := disjoint.Anchors(g)
	chunks, err := runner.Run(runner.Spec[[]float64]{
		Name:   req.Experiment,
		Trials: (len(anchors) + anchorChunk - 1) / anchorChunk,
		Seed:   opts.Seed,
		Run: func(t runner.Trial) ([]float64, error) {
			lo := t.Index * anchorChunk
			hi := min(lo+anchorChunk, len(anchors))
			out := make([]float64, 0, hi-lo)
			for _, m := range anchors[lo:hi] {
				rng := rand.New(rand.NewSource(disjoint.AnchorSeed(opts, m)))
				var v float64
				if intelligent {
					v, _ = disjoint.PhiIntelligent(g, counts, m, opts, rng)
				} else {
					v = disjoint.Phi(g, counts, m, opts, rng)
				}
				out = append(out, v)
			}
			return out, nil
		},
	}, req.runner())
	if err != nil {
		return nil, err
	}
	phiOf := make(map[topology.ASN]float64, len(anchors))
	i := 0
	for _, chunk := range chunks {
		for _, v := range chunk {
			phiOf[anchors[i]] = v
			i++
		}
	}
	cdf := metrics.NewCDF(disjoint.AssemblePhi(anchorOf, phiOf))
	return req.envelope("sim", graphInfo(g), &Figure1Result{
		CDF:         cdf,
		Mean:        cdf.Mean(),
		FracBelow07: cdf.At(0.7),
		FracAbove09: cdf.FracAbove(0.9),
		Intelligent: intelligent,
	}), nil
}

// Print renders the result in the paper's terms, including CDF points
// suitable for regenerating the Figure 1 curve.
func (r *Figure1Result) Print(w io.Writer) {
	mode := "random"
	if r.Intelligent {
		mode = "intelligent"
	}
	fmt.Fprintf(w, "Figure 1 — CDF of Φk (%s locked-blue-provider selection)\n", mode)
	fmt.Fprintf(w, "  destinations        : %d\n", r.CDF.Len())
	fmt.Fprintf(w, "  mean Φ              : %.3f (paper: 0.92 random / 0.97 intelligent)\n", r.Mean)
	fmt.Fprintf(w, "  fraction with Φ<=0.7: %.1f%% (paper: <10%%)\n", 100*r.FracBelow07)
	fmt.Fprintf(w, "  fraction with Φ>0.9 : %.1f%% (paper: >75%%)\n", 100*r.FracAbove09)
	fmt.Fprintln(w, "  CDF points (Φ, cumulative fraction):")
	for _, pt := range r.CDF.Points(20) {
		fmt.Fprintf(w, "    %.3f\t%.2f\n", pt[0], pt[1])
	}
}

// PartialDeploymentResult captures the §6.3 tier-1-only deployment
// experiment.
type PartialDeploymentResult struct {
	// ProtectedFrac is the fraction of ASes with two downhill
	// node-disjoint paths under the deployment (paper: ≈ 75% for tier-1
	// only).
	ProtectedFrac float64
	// FullFrac is the same fraction under full deployment (the structural
	// two-disjoint-uphill-paths bound), for comparison.
	FullFrac float64
	// DeployedCount is how many ASes run STAMP.
	DeployedCount int
}

// runPartial evaluates STAMP deployed only at tier-1 ASes.
func runPartial(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	tier1 := make(map[topology.ASN]bool)
	for _, t := range g.Tier1s() {
		tier1[t] = true
	}
	partial := disjoint.PartialDeployment(g, func(a topology.ASN) bool { return tier1[a] })

	full := 0
	for a := 0; a < g.Len(); a++ {
		v := topology.ASN(a)
		m, ok := v, true
		if !g.IsMultihomed(v) {
			m, ok = g.FirstMultihomedAncestor(v)
		}
		if (ok && disjoint.TwoDisjointUphillPaths(g, m)) || g.IsTier1(v) {
			full++
		}
	}
	return req.envelope("sim", graphInfo(g), &PartialDeploymentResult{
		ProtectedFrac: metrics.Mean(partial),
		FullFrac:      float64(full) / float64(g.Len()),
		DeployedCount: len(tier1),
	}), nil
}

// Print renders the partial deployment result.
func (r *PartialDeploymentResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Partial deployment — STAMP at %d tier-1 ASes only\n", r.DeployedCount)
	fmt.Fprintf(w, "  ASes with two downhill-disjoint paths: %.1f%% (paper: ~75%%)\n", 100*r.ProtectedFrac)
	fmt.Fprintf(w, "  structural bound at full deployment  : %.1f%%\n", 100*r.FullFrac)
}

// The ablations isolate two design choices DESIGN.md calls out: the
// Lock attribute and the MRAI timer. Intelligent blue-provider
// selection is figure1-intelligent; the color-switch rule is exercised
// by internal/traffic's walker tests.

// LockAblationResult measures what the Lock mechanism buys: the fraction
// of ASes that end up with a blue route, with the mechanism on and off.
type LockAblationResult struct {
	BlueCoverageWithLock    float64
	BlueCoverageWithoutLock float64
	RedCoverage             float64
	Dest                    topology.ASN
}

// lockArm is one arm of the lock ablation: blue/red coverage with the
// mechanism on or off.
type lockArm struct {
	blue, red float64
}

// runLockAblation converges STAMP twice on the same topology and its
// first multi-homed destination — once normally, once with the Lock
// mechanism disabled — and reports blue-route coverage. The two arms
// are independent runner trials (-workers 1 serializes the two
// whole-topology instances, halving peak memory); both use the same
// engine seed by construction (the ablation isolates the Lock rule, not
// the timing).
func runLockAblation(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	dest, ok := firstMultihomed(g)
	if !ok {
		return nil, fmt.Errorf("topology has no multi-homed AS")
	}
	arms, err := runner.Run(runner.Spec[lockArm]{
		Name:   "ablation-lock",
		Trials: 2,
		Seed:   req.Seed,
		Run: func(t runner.Trial) (lockArm, error) {
			// STAMP's control plane alone: no data plane is classified.
			e := sim.NewEngine(sim.DefaultParams(), req.Seed)
			e.SetCancel(t.Ctx)
			net := sim.NewNetwork(e, g)
			nodes := make([]*core.Node, g.Len())
			for a := range nodes {
				nodes[a] = core.NewNode(topology.ASN(a), g, e, net)
			}
			nodes[dest].Originate()
			if t.Index == 1 {
				for _, nd := range nodes {
					nd.DisableLock = true
				}
				// Re-apply origination announcements under the new policy.
				nodes[dest].WithdrawOrigin()
				nodes[dest].Originate()
			}
			if _, err := e.Run(); err != nil {
				return lockArm{}, err
			}
			blue, red := 0, 0
			for _, nd := range nodes {
				if nd.Blue.Best() != nil {
					blue++
				}
				if nd.Red.Best() != nil {
					red++
				}
			}
			return lockArm{
				blue: float64(blue) / float64(g.Len()),
				red:  float64(red) / float64(g.Len()),
			}, nil
		},
	}, req.runner())
	if err != nil {
		return nil, err
	}
	return req.envelope("sim", graphInfo(g), &LockAblationResult{
		Dest:                    dest,
		BlueCoverageWithLock:    arms[0].blue,
		BlueCoverageWithoutLock: arms[1].blue,
		RedCoverage:             arms[0].red,
	}), nil
}

func firstMultihomed(g *topology.Graph) (topology.ASN, bool) {
	for a := 0; a < g.Len(); a++ {
		if g.IsMultihomed(topology.ASN(a)) {
			return topology.ASN(a), true
		}
	}
	return 0, false
}

// Print renders the lock ablation.
func (r *LockAblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Lock attribute ablation (dest %d)\n", r.Dest)
	fmt.Fprintf(w, "  blue coverage with lock   : %.1f%%\n", 100*r.BlueCoverageWithLock)
	fmt.Fprintf(w, "  blue coverage without lock: %.1f%%\n", 100*r.BlueCoverageWithoutLock)
	fmt.Fprintf(w, "  red coverage (reference)  : %.1f%%\n", 100*r.RedCoverage)
}

// MRAIAblationResult compares convergence and message cost with and
// without the MRAI timer.
type MRAIAblationResult struct {
	WithMRAI, WithoutMRAI *ProtocolStats
}

// runMRAIAblation runs the single-link-failure workload for plain BGP
// with the MRAI timer on and off, one transient run per arm.
func runMRAIAblation(req Request) (*Result, error) {
	g, err := req.graph()
	if err != nil {
		return nil, err
	}
	out := &MRAIAblationResult{}
	for _, enabled := range []bool{true, false} {
		p := sim.DefaultParams()
		p.MRAIEnabled = enabled
		res, err := req.transient(g, scenario.SingleLink, p, []traffic.Protocol{traffic.BGP})
		if err != nil {
			return nil, err
		}
		if enabled {
			out.WithMRAI = res.Stats[traffic.BGP]
		} else {
			out.WithoutMRAI = res.Stats[traffic.BGP]
		}
	}
	return req.envelope("sim", graphInfo(g), out), nil
}

// Print renders the MRAI ablation.
func (r *MRAIAblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "MRAI ablation — BGP under single link failure")
	fmt.Fprintf(w, "  with MRAI   : affected %.1f, convergence %v, updates %.0f\n",
		r.WithMRAI.MeanAffected, r.WithMRAI.MeanConvergence, r.WithMRAI.MeanUpdates)
	fmt.Fprintf(w, "  without MRAI: affected %.1f, convergence %v, updates %.0f\n",
		r.WithoutMRAI.MeanAffected, r.WithoutMRAI.MeanConvergence, r.WithoutMRAI.MeanUpdates)
}
