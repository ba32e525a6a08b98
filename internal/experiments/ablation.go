package experiments

import (
	"fmt"
	"io"

	"stamp/internal/core"
	"stamp/internal/runner"
	"stamp/internal/sim"
	"stamp/internal/topology"
)

// Ablation harnesses for the design choices DESIGN.md calls out: the Lock
// attribute, the MRAI timer, and intelligent blue-provider selection are
// covered here; the color-switch rule is exercised by internal/traffic's
// walker tests.

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

// RunLockAblation converges STAMP twice on the same topology and
// destination — once normally, once with the Lock mechanism disabled —
// and reports blue-route coverage. The two arms are independent runner
// trials sharded across ropts.Workers (<= 0: one per CPU; 1 serializes
// the two whole-topology instances, halving peak memory); both use the
// same engine seed by construction (the ablation isolates the Lock
// rule, not the timing).
func RunLockAblation(g *topology.Graph, dest topology.ASN, seed int64, ropts runner.Options) (*LockAblationResult, error) {
	spec := runner.Spec[lockArm]{
		Name:   "ablation-lock",
		Trials: 2,
		Seed:   seed,
		Run: func(t runner.Trial) (lockArm, error) {
			// STAMP's control plane alone: no data plane is classified.
			e := sim.NewEngine(sim.DefaultParams(), seed)
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
	}
	arms, err := runner.Run(spec, ropts)
	if err != nil {
		return nil, err
	}
	return &LockAblationResult{
		Dest:                    dest,
		BlueCoverageWithLock:    arms[0].blue,
		BlueCoverageWithoutLock: arms[1].blue,
		RedCoverage:             arms[0].red,
	}, nil
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

// RunMRAIAblation runs the single-link-failure workload for plain BGP
// with the MRAI timer on and off, sharding each arm's trials across
// ropts.Workers (<= 0: one per CPU) with ropts.Progress reporting per
// arm and ropts.Context cancellation.
func RunMRAIAblation(g *topology.Graph, trials int, seed int64, ropts runner.Options) (*MRAIAblationResult, error) {
	out := &MRAIAblationResult{}
	for _, enabled := range []bool{true, false} {
		p := sim.DefaultParams()
		p.MRAIEnabled = enabled
		res, err := RunTransient(TransientOpts{
			G: g, Trials: trials, Seed: seed, Scenario: ScenarioSingleLink,
			Params: p, Protocols: []Protocol{ProtoBGP},
			Workers: ropts.Workers, Progress: ropts.Progress, Context: ropts.Context,
		})
		if err != nil {
			return nil, err
		}
		if enabled {
			out.WithMRAI = res.Stats[ProtoBGP]
		} else {
			out.WithoutMRAI = res.Stats[ProtoBGP]
		}
	}
	return out, nil
}

// Print renders the MRAI ablation.
func (r *MRAIAblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "MRAI ablation — BGP under single link failure")
	fmt.Fprintf(w, "  with MRAI   : affected %.1f, convergence %v, updates %.0f\n",
		r.WithMRAI.MeanAffected, r.WithMRAI.MeanConvergence, r.WithMRAI.MeanUpdates)
	fmt.Fprintf(w, "  without MRAI: affected %.1f, convergence %v, updates %.0f\n",
		r.WithoutMRAI.MeanAffected, r.WithoutMRAI.MeanConvergence, r.WithoutMRAI.MeanUpdates)
}
