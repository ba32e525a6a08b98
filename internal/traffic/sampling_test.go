package traffic

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"stamp/internal/bgp"
	"stamp/internal/forwarding"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// qualityCost is hashCost with the link-quality state the quality
// scenario kinds script: a latency multiplier and a gray-loss rate per
// link, changed only through scenario.QualityExecutor.
type qualityCost struct {
	mult, gray map[[2]int32]float64
}

func newQualityCost() *qualityCost {
	return &qualityCost{mult: map[[2]int32]float64{}, gray: map[[2]int32]float64{}}
}

func (c *qualityCost) LinkLatMs(a, b int32) float64 {
	lat := hashCost{}.LinkLatMs(a, b)
	if m, ok := c.mult[pk(a, b)]; ok {
		lat *= m
	}
	return lat
}

func (c *qualityCost) LinkLossRate(a, b int32) float64 {
	if g, ok := c.gray[pk(a, b)]; ok {
		return g
	}
	return hashCost{}.LinkLossRate(a, b)
}

func (c *qualityCost) DegradeLink(a, b topology.ASN, mult float64) error {
	c.mult[pk(int32(a), int32(b))] = mult
	return nil
}

func (c *qualityCost) GrayLink(a, b topology.ASN, rate float64) error {
	c.gray[pk(int32(a), int32(b))] = rate
	return nil
}

func (c *qualityCost) ClearLink(a, b topology.ASN) error {
	delete(c.mult, pk(int32(a), int32(b)))
	delete(c.gray, pk(int32(a), int32(b)))
	return nil
}

// greedySteer is a minimal Steerer: after every tick each source takes
// the color whose forced path is perceived faster. onStep, when set,
// runs at the end of every Step with the 1-based tick number.
type greedySteer struct {
	colors []uint8
	steps  int
	onStep func(step int)
}

func (s *greedySteer) Init(_, _, _, _ []float32, pref []uint8) {
	s.colors = append([]uint8(nil), pref...)
}

func (s *greedySteer) Colors() []uint8 { return s.colors }

func (s *greedySteer) Step(redLat, redLossP, blueLat, blueLossP []float32) {
	perceived := func(lat, lossP float32) float32 {
		if lat < 0 {
			return DefaultTimeoutMs
		}
		return lat + lossP*DefaultTimeoutMs
	}
	for v := range s.colors {
		if r, b := perceived(redLat[v], redLossP[v]), perceived(blueLat[v], blueLossP[v]); r != b {
			s.colors[v] = 0
			if b < r {
				s.colors[v] = 1
			}
		}
	}
	s.steps++
	if s.onStep != nil {
		s.onStep(s.steps)
	}
}

// samplingOpts is the run the sampling tests share: a window long
// enough for MRAI-paced convergence at a tick that resolves the
// scripts' 250ms event spacing.
func samplingOpts(g *topology.Graph, proto Protocol, script scenario.Script, withCost bool) SimOpts {
	o := SimOpts{G: g, Proto: proto, Script: script, Seed: 23, Tick: 50 * time.Millisecond, Ticks: 900}
	if withCost || proto == STAMPSteer {
		o.Cost = newQualityCost()
	}
	if proto == STAMPSteer {
		o.Steer = &greedySteer{}
	}
	return o
}

// eachScenario runs fn on a script of every scenario kind (aliases
// included), drawn on g.
func eachScenario(t *testing.T, g *topology.Graph, fn func(name string, script scenario.Script)) {
	t.Helper()
	for _, name := range scenario.Names() {
		script, err := scenario.Named(name, g, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fn(name, script)
	}
}

// TestWalkRBGPMatchesOracleMidConvergence: on the live R-BGP node state
// of every tick that changed anything, in every scenario kind and both
// RCI arms, the flat walker's sample equals the reference walk run
// against the same paused nodes.
func TestWalkRBGPMatchesOracleMidConvergence(t *testing.T) {
	g := genGraph(t, 80, 3)
	var walks, undelivered, deflected int
	for _, proto := range []Protocol{RBGPNoRCI, RBGP} {
		for _, withCost := range []bool{false, true} {
			eachScenario(t, g, func(name string, script scenario.Script) {
				o := samplingOpts(g, proto, script, withCost)
				var baseline []int32
				probe := &simProbe{sampled: func(in *instance, w *Walk) {
					var ref Walk
					oracleRBGP(g.Len(), in.dest, liveRBGP{in.rbgp}, in.cost, &ref)
					sameWalk(t, fmt.Sprintf("%v/%s/cost=%v at t=%v", proto, name, withCost, in.e.Now()), w, &ref)
					walks++
					undelivered += len(w.Status) - w.Delivered()
					if baseline == nil {
						baseline = append(baseline, w.Hops...)
					}
					for v, h := range w.Hops {
						if w.Status[v] == forwarding.Delivered && h != baseline[v] {
							deflected++
						}
					}
				}}
				if _, err := runSim(o, probe); err != nil {
					t.Fatalf("%v/%s: %v", proto, name, err)
				}
			})
		}
	}
	t.Logf("%d live walks compared; %d undelivered and %d re-routed source samples among them", walks, undelivered, deflected)
	if walks < 1000 || undelivered == 0 || deflected == 0 {
		t.Errorf("fixture too quiet: %d walks, %d undelivered, %d re-routed source samples", walks, undelivered, deflected)
	}
}

// TestChangeDrivenSamplingIsExact: skipping classification on ticks
// during which the engine executed nothing (and, on the steering arm,
// the policy changed no color) yields the same curve, byte for byte,
// and the same final walk as classifying on every tick — for every
// protocol arm, every scenario kind, with and without a cost model. The
// steering arm re-runs its forced walks on exactly the busy ticks.
func TestChangeDrivenSamplingIsExact(t *testing.T) {
	g := genGraph(t, 60, 5)
	skipped, steerSkipped := 0, 0
	for _, proto := range []Protocol{BGP, RBGPNoRCI, RBGP, STAMP, STAMPSteer} {
		for _, withCost := range []bool{false, true} {
			if proto == STAMPSteer && !withCost {
				continue // the steering arm needs a model
			}
			eachScenario(t, g, func(name string, script scenario.Script) {
				ctx := fmt.Sprintf("%v/%s/cost=%v", proto, name, withCost)
				run := func(probe *simProbe) (*Curve, []byte) {
					cur, err := runSim(samplingOpts(g, proto, script, withCost), probe)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					b, err := json.Marshal(cur)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					return cur, b
				}
				every, lazy := &simProbe{everyTick: true}, &simProbe{}
				wantCur, want := run(every)
				gotCur, got := run(lazy)
				if string(got) != string(want) {
					t.Errorf("%s: change-driven curve differs from the every-tick curve:\n%s\n%s", ctx, got, want)
				}
				if !reflect.DeepEqual(gotCur.Final, wantCur.Final) {
					t.Errorf("%s: final walks differ", ctx)
				}
				if every.classified != gotCur.Ticks {
					t.Errorf("%s: the every-tick reference classified %d of %d ticks", ctx, every.classified, gotCur.Ticks)
				}
				if lazy.classified < lazy.busy {
					t.Errorf("%s: classified %d ticks, fewer than the %d busy ones", ctx, lazy.classified, lazy.busy)
				}
				if proto == STAMPSteer {
					if lazy.forced != lazy.busy || every.forced != gotCur.Ticks {
						t.Errorf("%s: the steering arm re-walked on %d ticks (%d in the reference), want the %d busy ones (all %d)",
							ctx, lazy.forced, every.forced, lazy.busy, gotCur.Ticks)
					}
					steerSkipped += every.classified - lazy.classified
				}
				skipped += every.classified - lazy.classified
			})
		}
	}
	if skipped == 0 || steerSkipped == 0 {
		t.Errorf("skipped %d ticks, %d on the steering arm: the comparison exercised too little", skipped, steerSkipped)
	}
}

// TestSamplingWorkFollowsChurn: the paper's Figure 3(b) scenario is
// quiet for most of its 60s window — withdrawal waves last tens of
// milliseconds and MRAI rounds come seconds apart — and the sampling
// loop must cost what the simulation changes, not what the window
// spans.
func TestSamplingWorkFollowsChurn(t *testing.T) {
	g := genGraph(t, 300, 3)
	script, err := scenario.Named("two-links-shared", g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range AllProtocols() {
		probe := &simProbe{}
		cur, err := runSim(SimOpts{G: g, Proto: proto, Script: script, Seed: 17}, probe)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		t.Logf("%v: classified %d of %d ticks", proto, probe.classified, cur.Ticks)
		if probe.classified == 0 || probe.classified > cur.Ticks/3 {
			t.Errorf("%v: classified %d of %d ticks, want some but at most a third", proto, probe.classified, cur.Ticks)
		}
	}
}

// TestRunSimStopsWithinATickOfCancel: the failure phase of a small
// topology executes far fewer events than the engine's cancellation
// poll interval, so the tick loop itself must notice a cancelled
// context: cancelled at the end of tick k, the run ends before tick
// k+2.
func TestRunSimStopsWithinATickOfCancel(t *testing.T) {
	g := genGraph(t, 60, 5)
	script, err := scenario.Named("link-failure", g, 9)
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	steer := &greedySteer{onStep: func(step int) {
		if step == k {
			cancel()
		}
	}}
	o := samplingOpts(g, STAMPSteer, script, true)
	o.Steer, o.Context = steer, ctx
	cur, err := RunSim(o)
	if !errors.Is(err, context.Canceled) || cur != nil {
		t.Fatalf("RunSim = %v, %v; want no curve and context.Canceled", cur, err)
	}
	if steer.steps > k+1 {
		t.Errorf("run went on for %d ticks after a cancel at tick %d", steer.steps-k, k)
	}
}

// fullSnapshotDiff reads every AS's forwarding state off the paused
// nodes and reports the first row where the instance's tables — which
// re-snapshot only the ASes marked since the last tick — disagree with
// it, or "" when none does.
func fullSnapshotDiff(in *instance) string {
	for a := 0; a < in.g.Len(); a++ {
		switch in.proto {
		case BGP:
			if want := nextHop32(in.bgpNodes[a].NextHop()); in.single[a] != want {
				return fmt.Sprintf("AS%d next hop %d, want %d", a, in.single[a], want)
			}
		case RBGPNoRCI, RBGP:
			if want := nextHop32(in.rbgpNodes[a].Primary()); in.single[a] != want {
				return fmt.Sprintf("AS%d primary %d, want %d", a, in.single[a], want)
			}
		case STAMP, STAMPSteer:
			node, t := in.stampNodes[a], &in.stamp
			got := fmt.Sprint(t.NextRed[a], t.NextBlue[a], t.UnstableRed[a], t.UnstableBlue[a], t.Pref[a])
			want := fmt.Sprint(nextHop32(node.NextHop(bgp.ColorRed)), nextHop32(node.NextHop(bgp.ColorBlue)),
				node.Unstable(bgp.ColorRed), node.Unstable(bgp.ColorBlue), uint8(node.Preferred()))
			if got != want {
				return fmt.Sprintf("AS%d row (red, blue, unstable red, unstable blue, pref) = %s, want %s", a, got, want)
			}
		}
	}
	return ""
}

// TestDirtySnapshotMatchesFull: on every classified tick of every arm,
// every scenario kind and two topologies, the tables re-snapshotted only
// where a node's OnRouteEvent hook or a link operation marked them equal
// a full snapshot of the paused nodes.
func TestDirtySnapshotMatchesFull(t *testing.T) {
	checked := 0
	for _, g := range []*topology.Graph{genGraph(t, 60, 5), genGraph(t, 90, 11)} {
		for _, proto := range []Protocol{BGP, RBGPNoRCI, RBGP, STAMP, STAMPSteer} {
			eachScenario(t, g, func(name string, script scenario.Script) {
				failed := false
				probe := &simProbe{everyTick: true, sampled: func(in *instance, _ *Walk) {
					checked++
					if d := fullSnapshotDiff(in); d != "" && !failed {
						failed = true
						t.Errorf("%v/%s/n=%d at t=%v: %s", proto, name, g.Len(), in.e.Now(), d)
					}
				}}
				if _, err := runSim(samplingOpts(g, proto, script, false), probe); err != nil {
					t.Fatalf("%v/%s: %v", proto, name, err)
				}
			})
		}
	}
	t.Logf("%d ticks checked", checked)
	if checked < 50_000 {
		t.Errorf("checked %d ticks, want at least 50000", checked)
	}
}

// TestIdleObserveAllocs: an idle tick re-emits the last fresh tick's
// aggregates without allocating.
func TestIdleObserveAllocs(t *testing.T) {
	const n, ticks = 50, 100
	c, err := newCurve(STAMP, 1, ticks, DefaultTick, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.enableUserLat(DefaultTimeoutMs); err != nil {
		t.Fatal(err)
	}
	w := &Walk{Status: make([]forwarding.Status, n), Hops: make([]int32, n), LatMs: make([]float32, n), LossP: make([]float32, n)}
	for v := 0; v < n; v += 3 {
		w.Status[v] = forwarding.Delivered
		w.Hops[v] = 2
	}
	c.observe(1, w, w, true)
	tick := 1
	if a := testing.AllocsPerRun(ticks-2, func() {
		tick++
		c.observe(tick, w, w, false)
	}); a != 0 {
		t.Errorf("idle observe allocates %v times, want 0", a)
	}
}
