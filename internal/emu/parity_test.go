package emu

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// parityFixtures are the three pinned (topology seed, scenario) pairs of
// the sim-vs-live differential contract: on each, the live fleet must
// converge to exactly the simulator's red/blue tables. They run in CI
// under -race.
var parityFixtures = []struct {
	name     string
	n        int
	topoSeed int64
	scenario string
	wlSeed   int64
}{
	{name: "n60-s1-link-failure", n: 60, topoSeed: 1, scenario: "link-failure", wlSeed: 1},
	{name: "n60-s2-two-links-shared", n: 60, topoSeed: 2, scenario: "two-links-shared", wlSeed: 2},
	{name: "n80-s3-node-failure", n: 80, topoSeed: 3, scenario: "node-failure", wlSeed: 3},
}

// TestSimLiveParityFixtures is the scenario-parity regression: for each
// pinned fixture, the live emulation's converged tables must be
// identical to the simulator's on the same topology and script.
func TestSimLiveParityFixtures(t *testing.T) {
	for _, fx := range parityFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			g := genGraph(t, fx.n, fx.topoSeed)
			script, err := scenario.Named(fx.scenario, g, fx.wlSeed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Options{Graph: g, Transport: "pipe"}, script)
			if err != nil {
				t.Fatal(err)
			}
			simT, err := SimTables(nil, g, script, ReferenceParams(), 1)
			if err != nil {
				t.Fatal(err)
			}
			divs := simT.Diff(res.Tables)
			for _, d := range divs {
				t.Errorf("divergence: %v", d)
			}
			t.Logf("%s: %d ASes, %d sessions, %d updates, 0 expected divergences (got %d)",
				fx.name, res.Stats.ASes, res.Stats.Sessions, res.Stats.Updates, len(divs))
		})
	}
}

// TestSimReferenceOrderRobust guards fixture quality at the reference's
// own delays: the simulator's converged tables must be invariant across
// engine seeds (message orderings) on every pinned fixture. Those
// delays, 10–20 ms, never let two hops overtake one, so this guard
// cannot see every order a live fleet produces;
// TestSimReferenceOrderWideDelays can.
func TestSimReferenceOrderRobust(t *testing.T) {
	for _, fx := range parityFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			g := genGraph(t, fx.n, fx.topoSeed)
			script, err := scenario.Named(fx.scenario, g, fx.wlSeed)
			if err != nil {
				t.Fatal(err)
			}
			base, err := SimTables(nil, g, script, ReferenceParams(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(2); seed <= 6; seed++ {
				other, err := SimTables(nil, g, script, ReferenceParams(), seed)
				if err != nil {
					t.Fatal(err)
				}
				if divs := base.Diff(other); len(divs) > 0 {
					for _, d := range divs {
						t.Errorf("seed %d: %v", seed, d)
					}
					t.Fatalf("sim tables depend on message ordering (%s)", fmt.Sprint(fx.name))
				}
			}
		})
	}
}

// wideDelaySeeds is how many fixed engine seeds the wide-delay guard
// draws per script.
const wideDelaySeeds = 500

// TestSimReferenceOrderWideDelays runs every script an emu differential
// test diffs on the simulator with message delays in [1 µs, 20 ms],
// where a two-hop message may overtake a one-hop one as it can on a
// live fleet, and collects the distinct converged states over fixed
// seeds. A robust script reaches only the reference state (the
// simulator at its default delays, seed 1). Two scripts are not robust:
// STAMP's sticky lock and colour assignment let message order pick the
// converged state, and each live test that diffs them fails when the
// fleet happens to take the other order. Their outcome sets are pinned
// exactly, so a fix that makes either robust fails here too and its
// entry is then emptied.
func TestSimReferenceOrderWideDelays(t *testing.T) {
	rig := rigGraph(t)
	scripts := []struct {
		name string
		g    *topology.Graph
		// script is set for the rig cases (they mirror the scripts of the
		// TestRig*Live tests); the rest are scenario.Named(kind, g, wlSeed).
		script   scenario.Script
		kind     string
		wlSeed   int64
		outcomes []string // the non-reference states reached; nil: robust
	}{
		{name: "rig-none", g: rig, script: scenario.Script{Name: "none", Dest: 5}},
		{name: "rig-fail-5-2", g: rig, script: scenario.Script{Name: "fail-5-2", Dest: 5, Events: []scenario.Event{
			{Op: scenario.OpFailLink, A: 5, B: 2},
		}}},
		// TestRigLinkFlapLive's script.
		{name: "rig-flap-5-2", g: rig, script: scenario.Script{Name: "flap-5-2", Dest: 5, Events: []scenario.Event{
			{Op: scenario.OpFailLink, A: 5, B: 2},
			{At: 150 * time.Millisecond, Op: scenario.OpRestoreLink, A: 5, B: 2},
		}}, outcomes: []string{"AS0 blue [3 5] (reference [2 5]), 5 entries differ, digest e265660a"}},
		{name: "rig-withdraw", g: rig, script: scenario.Script{Name: "withdraw", Dest: 5, Events: []scenario.Event{
			{Op: scenario.OpWithdraw, Node: 5},
		}}},
		{name: "rig-fail-5-3", g: rig, script: scenario.Script{Name: "fail-5-3-tcp", Dest: 5, Events: []scenario.Event{
			{Op: scenario.OpFailLink, A: 5, B: 3},
		}}},
		{name: "n40-s1-link-failure", g: genGraph(t, 40, 1), kind: "link-failure", wlSeed: 1},
		{name: "n60-s1-link-failure", g: genGraph(t, 60, 1), kind: "link-failure", wlSeed: 1},
		// TestSimLiveParityFixtures/n60-s2-two-links-shared's script.
		{name: "n60-s2-two-links-shared", g: genGraph(t, 60, 2), kind: "two-links-shared", wlSeed: 2,
			outcomes: []string{"AS1 red [3 34] (reference [5 34]), 30 entries differ, digest 783308dd"}},
		{name: "n80-s3-node-failure", g: genGraph(t, 80, 3), kind: "node-failure", wlSeed: 3},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			script := sc.script
			if sc.kind != "" {
				var err error
				if script, err = scenario.Named(sc.kind, sc.g, sc.wlSeed); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := SimTables(nil, sc.g, script, ReferenceParams(), 1)
			if err != nil {
				t.Fatal(err)
			}
			params := ReferenceParams()
			params.MinDelay = time.Microsecond
			seen := map[string]int{}
			for seed := int64(1); seed <= wideDelaySeeds; seed++ {
				got, err := SimTables(nil, sc.g, script, params, seed)
				if err != nil {
					t.Fatal(err)
				}
				if divs := ref.Diff(got); len(divs) > 0 {
					seen[outcome(divs)]++
				}
			}
			var states []string
			for k, n := range seen {
				states = append(states, k)
				t.Logf("%d of %d seeds: %s", n, wideDelaySeeds, k)
			}
			slices.Sort(states)
			if !slices.Equal(states, sc.outcomes) {
				t.Errorf("non-reference states over %d seeds at [1 µs, 20 ms]:\n got  %q\n want %q",
					wideDelaySeeds, states, sc.outcomes)
			}
		})
	}
}

// outcome names a converged state by how it differs from the reference:
// its first differing entry, the number of differing entries and a
// digest of them all.
func outcome(divs []Divergence) string {
	h := fnv.New32a()
	for _, d := range divs {
		fmt.Fprintln(h, d)
	}
	d := divs[0]
	return fmt.Sprintf("AS%d %s %v (reference %v), %d entries differ, digest %08x",
		d.AS, d.Color, d.Live, d.Sim, len(divs), h.Sum32())
}
