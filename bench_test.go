package stamp

// One benchmark per table/figure of the paper's evaluation (§6), plus
// ablations for the design choices DESIGN.md calls out. Each benchmark
// regenerates its experiment on a fresh synthetic topology and reports
// the headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set at laptop scale. Absolute counts
// differ from the paper (its topology was a 2008 RouteViews snapshot);
// the protocol ordering and ratios are the reproduction targets. See
// EXPERIMENTS.md for the recorded comparison.

import (
	"math/rand"
	"testing"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/disjoint"
	"stamp/internal/emu"
	"stamp/internal/experiments"
	"stamp/internal/prov"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/sim"
	"stamp/internal/topology"
	"stamp/internal/trace"
	"stamp/internal/traffic"
)

const (
	benchTopoSize = 1000
	benchTrials   = 10
	benchSeed     = 9
)

func benchGraph(b *testing.B) *topology.Graph {
	b.Helper()
	g, err := topology.GenerateDefault(benchTopoSize, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFigure1 regenerates the CDF of Φk under random locked-blue
// provider selection (paper: mean ≈ 0.92).
func BenchmarkFigure1(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure1(g, disjoint.DefaultPhiOpts())
		b.ReportMetric(res.Mean, "meanPhi")
		b.ReportMetric(100*res.FracAbove09, "%destPhi>0.9")
	}
}

// BenchmarkFigure1Intelligent regenerates the intelligent-selection
// variant (paper: mean ≈ 0.97).
func BenchmarkFigure1Intelligent(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure1Intelligent(g, disjoint.DefaultPhiOpts())
		b.ReportMetric(res.Mean, "meanPhi")
	}
}

// benchTransient runs one failure scenario and reports per-protocol mean
// affected-AS counts (the bars of Figures 2 and 3).
func benchTransient(b *testing.B, sc experiments.Scenario) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTransient(experiments.TransientOpts{
			G: g, Trials: benchTrials, Seed: benchSeed, Scenario: sc,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats[experiments.ProtoBGP].MeanAffected, "BGP")
		b.ReportMetric(res.Stats[experiments.ProtoRBGPNoRCI].MeanAffected, "R-BGP-noRCI")
		b.ReportMetric(res.Stats[experiments.ProtoRBGP].MeanAffected, "R-BGP")
		b.ReportMetric(res.Stats[experiments.ProtoSTAMP].MeanAffected, "STAMP")
	}
}

// BenchmarkFigure2 is the single provider-link failure comparison
// (paper: BGP 6604, R-BGP-noRCI 2097, R-BGP 0, STAMP 357).
func BenchmarkFigure2(b *testing.B) { benchTransient(b, experiments.ScenarioSingleLink) }

// BenchmarkFigure3a is the two-disjoint-link failure comparison
// (paper: BGP 10314, R-BGP-noRCI 4242, R-BGP 861, STAMP 845).
func BenchmarkFigure3a(b *testing.B) { benchTransient(b, experiments.ScenarioTwoLinksApart) }

// BenchmarkFigure3b is the shared-AS double failure comparison
// (paper: BGP 12071, R-BGP-noRCI 3803, R-BGP 761, STAMP 366 — STAMP wins
// because the two failures are one routing event for it).
func BenchmarkFigure3b(b *testing.B) { benchTransient(b, experiments.ScenarioTwoLinksShared) }

// BenchmarkNodeFailure is the single-AS failure variant mentioned in
// §6.2.2.
func BenchmarkNodeFailure(b *testing.B) { benchTransient(b, experiments.ScenarioNodeFailure) }

// BenchmarkPartialDeployment regenerates §6.3's tier-1-only deployment
// analysis (paper: ~75% of ASes keep two downhill-disjoint paths).
func BenchmarkPartialDeployment(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		res := experiments.RunPartialDeployment(g)
		b.ReportMetric(100*res.ProtectedFrac, "%protected")
	}
}

// BenchmarkOverhead regenerates §6.3's message overhead comparison
// (paper: STAMP < 2× BGP updates).
func BenchmarkOverhead(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTransient(experiments.TransientOpts{
			G: g, Trials: 5, Seed: benchSeed, Scenario: experiments.ScenarioSingleLink,
			Protocols: []experiments.Protocol{experiments.ProtoBGP, experiments.ProtoSTAMP},
		})
		if err != nil {
			b.Fatal(err)
		}
		o, err := res.Overhead()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(o.Ratio, "updateRatio")
	}
}

// BenchmarkConvergence regenerates §6.3's convergence-delay comparison
// (paper: STAMP converges faster than BGP on the same event).
func BenchmarkConvergence(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTransient(experiments.TransientOpts{
			G: g, Trials: 5, Seed: benchSeed, Scenario: experiments.ScenarioSingleLink,
			Protocols: []experiments.Protocol{experiments.ProtoBGP, experiments.ProtoSTAMP},
		})
		if err != nil {
			b.Fatal(err)
		}
		c, err := res.Convergence()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.BGP.Seconds(), "BGP-s")
		b.ReportMetric(c.STAMP.Seconds(), "STAMP-s")
	}
}

// BenchmarkAblationLock measures what the Lock attribute buys: blue-route
// coverage with and without it.
func BenchmarkAblationLock(b *testing.B) {
	g := benchGraph(b)
	dest := topology.ASN(-1)
	for a := 0; a < g.Len(); a++ {
		if g.IsMultihomed(topology.ASN(a)) {
			dest = topology.ASN(a)
			break
		}
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLockAblation(g, dest, benchSeed, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.BlueCoverageWithLock, "%blueWithLock")
		b.ReportMetric(100*res.BlueCoverageWithoutLock, "%blueNoLock")
	}
}

// BenchmarkAblationMRAI measures the MRAI timer's effect on BGP
// convergence and churn.
func BenchmarkAblationMRAI(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMRAIAblation(g, 5, benchSeed, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithMRAI.MeanConvergence.Seconds(), "convMRAI-s")
		b.ReportMetric(res.WithoutMRAI.MeanConvergence.Seconds(), "convNoMRAI-s")
	}
}

// BenchmarkAblationIntelligentPick compares random vs intelligent blue
// provider selection on the same topology (the Φ delta of §6.1).
func BenchmarkAblationIntelligentPick(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure1(g, disjoint.DefaultPhiOpts())
		iv := experiments.RunFigure1Intelligent(g, disjoint.DefaultPhiOpts())
		b.ReportMetric(iv.Mean-r.Mean, "phiGain")
	}
}

// BenchmarkScaleSweep measures how the affected-AS counts scale with
// topology size (the paper argues denser graphs favor STAMP).
func BenchmarkScaleSweep(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		b.Run(sizeName(n), func(b *testing.B) {
			g, err := topology.GenerateDefault(n, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunTransient(experiments.TransientOpts{
					G: g, Trials: 5, Seed: benchSeed, Scenario: experiments.ScenarioSingleLink,
					Protocols: []experiments.Protocol{experiments.ProtoBGP, experiments.ProtoSTAMP},
				})
				if err != nil {
					b.Fatal(err)
				}
				bgp := res.Stats[experiments.ProtoBGP].MeanAffected
				st := res.Stats[experiments.ProtoSTAMP].MeanAffected
				b.ReportMetric(bgp, "BGP")
				b.ReportMetric(st, "STAMP")
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000:
		return "n" + itoa(n/1000) + "k"
	default:
		return "n" + itoa(n)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkEmuConvergence boots the live-emulation fleet — 200 ASes as
// real STAMP red/blue wire-protocol speakers over the in-memory pipe
// transport — injects a single link failure, and waits for wall-clock
// quiescence. It reports the live fleet's boot and convergence times,
// the subsystem's headline cost (sim benchmarks above measure virtual
// time; this one measures the implementation).
func BenchmarkEmuConvergence(b *testing.B) {
	const n = 200
	g, err := topology.GenerateDefault(n, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	script, err := scenario.Named("link-failure", g, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := emu.Run(emu.Options{Graph: g, Transport: "pipe"}, script)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Boot.Milliseconds()), "boot-ms")
		b.ReportMetric(float64(res.InitialConvergence.Milliseconds()), "initial-ms")
		b.ReportMetric(res.ScenarioConvergence.Seconds()*1e3, "scenario-ms")
		b.ReportMetric(float64(res.Stats.Sessions), "sessions")
		b.ReportMetric(float64(res.Stats.Updates), "updates")
	}
}

// BenchmarkTrafficWalk measures the packet engine's hot path: one full
// multi-source classification of a 1000-AS forwarding snapshot, batched
// (memoized, flat arrays — every walk state resolved once) vs naive
// (per-packet hop-by-hop walking, the literal model). Two regimes: a
// converged snapshot (short paths, where the naive model is adequate)
// and a transient one with a routing loop between two tier-1s — the
// snapshots the engine actually samples during failures, where naive
// walking pays O(n) per looping source and the memoized walker's
// O(states) bound is what keeps dense tick sampling cheap. The report
// metric is packet-walks per second.
func BenchmarkTrafficWalk(b *testing.B) {
	g := benchGraph(b)
	n := g.Len()
	dest := topology.ASN(-1)
	for a := 0; a < n; a++ {
		if g.IsMultihomed(topology.ASN(a)) {
			dest = topology.ASN(a)
			break
		}
	}
	routes := topology.StaticRoutes(g, dest)
	next := make([]int32, n)
	for a := 0; a < n; a++ {
		switch {
		case topology.ASN(a) == dest:
			next[a] = int32(a)
		case routes[a] == nil:
			next[a] = -1
		default:
			next[a] = int32(routes[a][0])
		}
	}
	// The transient variant mimics mutual staleness during a withdrawal
	// wave: two tier-1s point at each other, so every source whose path
	// crosses either one loops.
	t1s := g.Tier1s()
	if len(t1s) < 2 {
		b.Fatal("bench topology has fewer than two tier-1s")
	}
	looped := append([]int32(nil), next...)
	looped[t1s[0]], looped[t1s[1]] = int32(t1s[1]), int32(t1s[0])

	var out traffic.Walk
	for _, snap := range []struct {
		name string
		next []int32
	}{{"converged", next}, {"transient-loop", looped}} {
		b.Run(snap.name+"/batched", func(b *testing.B) {
			var w traffic.Walker
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.WalkSingle(snap.next, int32(dest), &out)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "walks/s")
		})
		b.Run(snap.name+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				traffic.NaiveWalkSingle(snap.next, int32(dest), &out)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "walks/s")
		})
		// The same tables as R-BGP primaries. Converged, the failover
		// view is never consulted; on the transient snapshot each
		// tier-1 bounces the other's packets and deflects them onto its
		// pre-staleness route, so the crossing sources deliver pinned.
		b.Run(snap.name+"/rbgp", func(b *testing.B) {
			var w traffic.Walker
			var fo traffic.Failover = staticFailover{routes} // boxed once, not per walk
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.WalkRBGP(snap.next, int32(dest), fo, &out)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "walks/s")
		})
	}
}

// staticFailover is a traffic.Failover over converged routes: an AS
// deflects onto its own stable path unless that path crosses the
// neighbor the packet came from, and every link is up.
type staticFailover struct{ routes [][]topology.ASN }

func (f staticFailover) Deflect(as, prev topology.ASN) []topology.ASN {
	for _, hop := range f.routes[as] {
		if hop == prev {
			return nil
		}
	}
	return f.routes[as]
}

func (f staticFailover) LinkUp(a, b topology.ASN) bool { return true }

// BenchmarkLossCurve measures one packet-level loss-curve trial end to
// end (single link failure, 2400 ticks of 25ms) per protocol: the cost
// the loss experiment pays per (trial, protocol) shard.
func BenchmarkLossCurve(b *testing.B) {
	g := benchGraph(b)
	script, err := scenario.Named("link-failure", g, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name  string
		proto traffic.Protocol
	}{{"bgp", traffic.BGP}, {"rbgp-norci", traffic.RBGPNoRCI}, {"rbgp", traffic.RBGP}, {"stamp", traffic.STAMP}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur, err := traffic.RunSim(traffic.SimOpts{
					G: g, Proto: arm.proto, Script: script, Seed: int64(i),
					Tick: 25 * time.Millisecond, Ticks: 2400,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cur.LostPacketTicks), "lostPktTicks")
			}
		})
	}
}

// BenchmarkAtlasConverge prices the atlas tentpole on a 10,000-AS
// topology: one full destination shard — three-plane initial
// convergence plus a flap-storm script — on the flat slab engine vs the
// map-based reference (identical algorithm and outcomes, classic
// per-AS-map storage). The flat/map ns-per-op ratio is the subsystem's
// headline speedup; the flat variant must report 0 allocs/op (also
// pinned by TestConvergeHotLoopAllocs).
func BenchmarkAtlasConverge(b *testing.B) {
	const n = 10_000
	tg, err := topology.GenerateDefault(n, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	g, err := atlas.FromTopology(tg)
	if err != nil {
		b.Fatal(err)
	}
	script, err := scenario.PickScript(g, scenario.Multihomed(g), scenario.FlapStorm,
		rand.New(rand.NewSource(benchSeed)))
	if err != nil {
		b.Fatal(err)
	}
	groups := atlas.GroupEvents(script)
	dests, err := atlas.Destinations(g, 1, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	dest := dests[0]

	b.Run("flat", func(b *testing.B) {
		eng := atlas.NewEngine(g, atlas.DefaultParams())
		st := eng.NewState()
		b.ReportAllocs()
		b.ResetTimer()
		var rounds int32
		for i := 0; i < b.N; i++ {
			out, err := eng.ConvergeDest(st, dest, groups)
			if err != nil {
				b.Fatal(err)
			}
			rounds = out.BGP.InitRounds + out.BGP.ReconvRounds
		}
		b.ReportMetric(float64(rounds), "bgp-rounds")
	})
	b.Run("map", func(b *testing.B) {
		eng := atlas.NewMapEngine(g, atlas.DefaultParams())
		st := eng.NewState()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ConvergeDest(st, dest, groups); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAtlasIncremental prices the incremental convergence tentpole
// on the same 10,000-AS flap-storm workload as BenchmarkAtlasConverge:
// per-event cost of ApplyEvent (invalidation cascade + frontier
// re-settle on a live fixpoint) vs ConvergeScratch (full three-plane
// re-convergence of the identically damaged topology). The
// scratch/incremental ns-per-op ratio is the replay subsystem's
// headline speedup (target ≥10×), and the incremental variant must
// report 0 allocs/op (also pinned by TestIncrementalHotLoopAllocs and
// the fuzz harness).
func BenchmarkAtlasIncremental(b *testing.B) {
	const n = 10_000
	tg, err := topology.GenerateDefault(n, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	g, err := atlas.FromTopology(tg)
	if err != nil {
		b.Fatal(err)
	}
	script, err := scenario.PickScript(g, scenario.Multihomed(g), scenario.FlapStorm,
		rand.New(rand.NewSource(benchSeed)))
	if err != nil {
		b.Fatal(err)
	}
	events := script.Sorted()
	dests, err := atlas.Destinations(g, 1, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	dest := dests[0]

	// The storm script is restore-balanced, so cycling it replays a
	// valid endless event stream (exactly what atlas.Replay -repeat
	// does).
	b.Run("incremental", func(b *testing.B) {
		eng := atlas.NewEngine(g, atlas.DefaultParams())
		st := eng.NewState()
		if err := eng.InitDest(st, dest); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ApplyEvent(st, events[i%len(events)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	// Same hot loop with the span tracer attached at 1-in-64 sampling —
	// the deployment configuration. The traced64/incremental ns-per-op
	// ratio is the tracing overhead (target < 5%), and the traced
	// variant must still report 0 allocs/op: sampled spans live on the
	// stack and land in preallocated ring slots.
	b.Run("traced64", func(b *testing.B) {
		eng := atlas.NewEngine(g, atlas.DefaultParams())
		eng.Trace(trace.New(trace.Options{SampleEvery: 64}))
		st := eng.NewState()
		if err := eng.InitDest(st, dest); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ApplyEvent(st, events[i%len(events)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	// Same hot loop with the route-provenance journal attached — the
	// `serve`/`why` configuration. The prov/incremental ns-per-op ratio
	// is the provenance overhead (CI gates it < 5%,
	// prov_overhead_ratio in the merged summary), and the journaled
	// variant must still report 0 allocs/op: entries land in a
	// preallocated ring.
	b.Run("prov", func(b *testing.B) {
		eng := atlas.NewEngine(g, atlas.DefaultParams())
		st := eng.NewState()
		st.SetJournal(prov.NewJournal(1 << 16))
		if err := eng.InitDest(st, dest); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ApplyEvent(st, events[i%len(events)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("scratch", func(b *testing.B) {
		eng := atlas.NewEngine(g, atlas.DefaultParams())
		st := eng.NewState()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.ConvergeScratch(st, dest, events[:i%len(events)+1]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkEngineThroughput measures raw simulator performance: events
// per second for a full BGP convergence, the substrate cost everything
// else pays.
func BenchmarkEngineThroughput(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTransient(experiments.TransientOpts{
			G: g, Trials: 1, Seed: int64(i), Scenario: experiments.ScenarioSingleLink,
			Protocols: []experiments.Protocol{experiments.ProtoBGP},
			Params:    sim.DefaultParams(),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// simSink is a sim.Node that drops everything delivered to it.
type simSink struct{}

func (simSink) Recv(topology.ASN, any) {}
func (simSink) LinkDown(topology.ASN)  {}
func (simSink) LinkUp(topology.ASN)    {}

// BenchmarkSimEngine measures the event queue alone: per op, 1024
// events — half timer callbacks, half message deliveries over one link —
// scheduled at random delays, then drained. Once the queue's backing
// array has grown it must report 0 allocs/op.
func BenchmarkSimEngine(b *testing.B) {
	const perOp = 1024
	g := topology.NewGraph(2)
	if err := g.AddProviderLink(1, 0); err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(sim.DefaultParams(), benchSeed)
	net := sim.NewNetwork(e, g)
	net.Register(1, simSink{})
	rng := rand.New(rand.NewSource(benchSeed))
	fired := 0
	tick := func() { fired++ }
	payload := any(&fired)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < perOp/2; k++ {
			e.After(time.Duration(rng.Intn(1000))*time.Microsecond, tick)
			net.Send(0, 1, payload)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*perOp)/b.Elapsed().Seconds(), "events/s")
}
