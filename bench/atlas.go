package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

// atlasSpec sizes one of the two atlas batch workloads.
type atlasSpec struct {
	name   string
	n      int
	dests  int
	repeat int // 0: atlas.Run from scratch; > 0: atlas.Replay cycling the script
	setup  setupPlan
}

// atlasOutcome is what either batch call reports, reduced to what the
// bench counts and cross-checks.
type atlasOutcome struct {
	ops             int // destination shards (Run) or shard-events (Replay)
	shardEvents     int
	changed, rounds int64
	reroots         int
	// changedBy is the route-change count per destination (Run) or per
	// stream event (Replay): what the traced run's own shards must match.
	changedBy []int64
	// consistent is false when two aggregations of the same shard outcomes
	// inside the report disagree.
	consistent bool
	// stampLost and bgpLost are lost AS-rounds, reported but not asserted:
	// STAMP <= BGP is the paper's claim and holds on most seeds, but a
	// blue-chain reroot at one destination can cost STAMP tens of thousands
	// of AS-rounds, so on some seeds the sums are the other way round.
	stampLost, bgpLost int64
}

// callAtlas makes the workload's one batch call with nworkers.
func callAtlas(sp atlasSpec, g *atlas.Graph, seed int64, nworkers int) (*atlasOutcome, error) {
	pseed := derive(seed, streamProgram)
	var perDest []atlas.DestOutcome
	var planes [atlas.PlaneCount]atlas.PlaneReport
	out := &atlasOutcome{}
	if sp.repeat == 0 {
		rep, err := atlas.Run(atlas.Options{Graph: g, Scenario: scenario.FlapStorm, Dests: sp.dests, Seed: pseed, Workers: nworkers})
		if err != nil {
			return nil, err
		}
		perDest, planes = rep.PerDest, [atlas.PlaneCount]atlas.PlaneReport{rep.BGP, rep.Red, rep.Blue}
		out.ops, out.shardEvents = rep.Dests, rep.Dests*rep.Events
		out.stampLost, out.consistent = rep.StampLostASRounds, len(perDest) == rep.Dests
		for _, d := range perDest {
			out.rounds += int64(d.BGP.ReconvRounds + d.Red.ReconvRounds + d.Blue.ReconvRounds)
			out.changedBy = append(out.changedBy, d.BGP.Changed+d.Red.Changed+d.Blue.Changed)
		}
	} else {
		rep, err := atlas.Replay(atlas.ReplayOptions{Graph: g, Scenario: scenario.FlapStorm, Repeat: sp.repeat, Dests: sp.dests, Seed: pseed, Workers: nworkers})
		if err != nil {
			return nil, err
		}
		perDest, planes = rep.PerDest, [atlas.PlaneCount]atlas.PlaneReport{rep.BGP, rep.Red, rep.Blue}
		out.ops, out.shardEvents = rep.TotalEvents*rep.Dests, rep.TotalEvents*rep.Dests
		out.stampLost = rep.StampLostASRounds
		var perEvent, bgpLost, stampLost int64
		for _, e := range rep.PerEvent {
			out.rounds += e.Rounds
			out.reroots += e.Reroots
			out.changedBy = append(out.changedBy, e.Changed)
			perEvent, bgpLost, stampLost = perEvent+e.Changed, bgpLost+e.BGPLost, stampLost+e.StampLost
		}
		// The per-event curve and the per-plane totals are two folds of the
		// same EventCosts.
		out.consistent = len(perDest) == rep.Dests && len(rep.PerEvent) == rep.TotalEvents &&
			perEvent == planes[0].Changed+planes[1].Changed+planes[2].Changed &&
			bgpLost == rep.BGP.LostASRounds && stampLost == rep.StampLostASRounds
	}
	out.bgpLost = planes[atlas.PlaneBGP].LostASRounds
	// The per-destination outcomes and the per-plane totals likewise.
	var sum [atlas.PlaneCount]atlas.PlaneOutcome
	var stamp int64
	for _, d := range perDest {
		for p, o := range [atlas.PlaneCount]atlas.PlaneOutcome{d.BGP, d.Red, d.Blue} {
			sum[p].Changed += o.Changed
			sum[p].LostASRounds += o.LostASRounds
		}
		stamp += d.StampLostASRounds
	}
	for p := range planes {
		out.changed += planes[p].Changed
		out.consistent = out.consistent && sum[p].Changed == planes[p].Changed && sum[p].LostASRounds == planes[p].LostASRounds
	}
	out.consistent = out.consistent && stamp == out.stampLost
	return out, nil
}

func (o *atlasOutcome) verify(r *result, sp atlasSpec) {
	r.check(o.ops > 0 && o.changed > 0, "the call did no work: %d ops, %d routes changed", o.ops, o.changed)
	r.check(o.consistent, "the report's per-destination, per-event and per-plane totals disagree")
	holds := "holds"
	if o.stampLost > o.bgpLost {
		holds = "does not hold on this seed"
	}
	fmt.Printf("# %s: STAMP lost %d AS-rounds, BGP %d: the paper's ordering %s (reported, not asserted)\n",
		sp.name, o.stampLost, o.bgpLost, holds)
}

// run is the untraced run of an atlas batch workload: one call, on
// the worker pool, nothing of the serve plane involved.
func (sp atlasSpec) run(seed int64) (*result, error) {
	r := newResult(sp.name, false)
	tp, err := repeatSetup(r, sp.setup, func() (*topo, error) { return buildTopo(sp.n, seed) })
	if err != nil {
		return nil, err
	}
	ph := startPhase(true)
	out, err := callAtlas(sp, tp.csr, seed, workers)
	if err != nil {
		return nil, err
	}
	wall := ph.stop(r)
	r.ops += out.ops
	// A batch workload is one call: its latency is the call's.
	r.setCalls(out.ops, wall, sortedMs([]time.Duration{wall}))
	out.verify(r, sp)
	return r, nil
}

// trace is the traced run: a third of the work; the batch call at one
// and at two workers (parallel efficiency, and the untraced reference),
// then the same shards driven from here through the engine's public
// per-destination calls, one span each.
func (sp atlasSpec) trace(seed int64, outDir string) (*result, error) {
	r := newResult(sp.name, true)
	if sp.repeat == 0 {
		sp.dests = max(sp.dests/3, 2)
	} else {
		sp.repeat = max(sp.repeat/3, 1)
	}
	tp, err := buildTopo(sp.n, seed)
	if err != nil {
		return nil, err
	}
	g := tp.csr
	tp.setLayers(r)

	t0 := time.Now()
	want, err := callAtlas(sp, g, seed, 1)
	if err != nil {
		return nil, err
	}
	one := time.Since(t0)
	t0 = time.Now()
	if _, err := callAtlas(sp, g, seed, 2); err != nil {
		return nil, err
	}
	two := time.Since(t0)
	r.set("runner.parallel_efficiency", one.Seconds()/(2*two.Seconds()), 1)
	r.ops += 2 * want.ops
	want.verify(r, sp)

	// The same draw atlas.Run and atlas.Replay make from their seed.
	pseed := derive(seed, streamProgram)
	script, err := scenario.PickScript(g, scenario.Multihomed(g), scenario.FlapStorm, rng(pseed, 1))
	if err != nil {
		return nil, err
	}
	dests, err := atlas.Destinations(g, sp.dests, derive(pseed, 2))
	if err != nil {
		return nil, err
	}
	events, groups := script.Sorted(), atlas.GroupEvents(script)
	tr := newRecorder(len(dests)*(2+sp.repeat*len(events))+64, 1)
	eng := atlas.NewEngine(g, atlas.DefaultParams())
	st := eng.NewState()
	got := &atlasOutcome{}
	var mallocs uint64
	t0 = time.Now()
	for i, d := range dests {
		tc := tr.Event(0)
		root := tc.Start("bench.dest")
		root.Arg("op", int64(i))
		if sp.repeat == 0 {
			var out atlas.DestOutcome
			timed(tc, root.ID(), "atlas.converge_dest", i, func() { out, err = eng.ConvergeDest(st, d, groups) })
			if err != nil {
				return nil, err
			}
			got.changedBy = append(got.changedBy, out.BGP.Changed+out.Red.Changed+out.Blue.Changed)
		} else {
			if err := traceReplayShard(tc, root.ID(), eng, st, d, events, sp.repeat, i, got, &mallocs); err != nil {
				return nil, err
			}
		}
		root.End()
	}
	tracedWall := time.Since(t0)
	r.ops += len(dests)
	r.set("trace.overhead_ratio", tracedWall.Seconds()/one.Seconds(), 1)
	r.set("trace.spans_dropped", float64(tr.Dropped()), 1)
	if err := setPeakRSS(r); err != nil {
		return nil, err
	}
	r.check(slices.Equal(got.changedBy, want.changedBy), "the shards driven from the bench changed different routes than the batch call")

	spans := collect(tr)
	p := r.setPct
	p("trace.root_self_us", spans.selfUs("bench.dest"), 50, 1)
	p("atlas.converge_dest_ms", spans.us("atlas.converge_dest"), 50, 1e-3)
	p("atlas.init_dest_ms", spans.us("atlas.init_dest"), 50, 1e-3)
	p("atlas.apply_event_us", spans.us("atlas.apply_event"), 50, 1)
	p("atlas.apply_event_p99_us", spans.us("atlas.apply_event"), 99, 1)
	se := float64(want.shardEvents)
	r.set("atlas.changed_per_event", float64(want.changed)/se, want.shardEvents)
	r.set("atlas.rounds_per_event", float64(want.rounds)/se, want.shardEvents)
	r.set("atlas.reroots", float64(want.reroots), want.shardEvents)
	r.set("atlas.useful_ratio", float64(want.changed)/(se*atlas.PlaneCount*float64(g.Len())), want.shardEvents)
	if sp.repeat > 0 {
		r.set("atlas.allocs_per_event", float64(mallocs)/se, want.shardEvents)
	}
	return r, spans.writeChrome(outDir, sp.name, map[string]any{"workload": sp.name, "seed": seed, "dests": len(dests)})
}

// traceReplayShard is atlas.Replay's per-shard loop with a span around
// each engine call; it adds the shard's per-event changes into got.
func traceReplayShard(tc trace.Ctx, root trace.SpanID, eng *atlas.Engine, st *atlas.State, d topology.ASN,
	events []scenario.Event, repeat, op int, got *atlasOutcome, mallocs *uint64) error {
	var err error
	timed(tc, root, "atlas.init_dest", op, func() { err = eng.InitDest(st, d) })
	if err != nil {
		return err
	}
	if got.changedBy == nil {
		got.changedBy = make([]int64, repeat*len(events))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for c := 0; c < repeat; c++ {
		for i, ev := range events {
			var cost atlas.EventCost
			timed(tc, root, "atlas.apply_event", op, func() { cost, err = eng.ApplyEvent(st, ev) })
			if err != nil {
				return err
			}
			got.changedBy[c*len(events)+i] += cost.Changed
		}
	}
	runtime.ReadMemStats(&ms)
	*mallocs += ms.Mallocs - before
	return nil
}
