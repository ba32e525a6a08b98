package atlas

import (
	"math/rand"
	"testing"

	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// mustNoDiff fails the test with the first few route disagreements when
// two converged states do not hold the same fixpoint.
func mustNoDiff(t testing.TB, label string, a, b StateView) {
	t.Helper()
	diffs := DiffStates(a, b)
	if len(diffs) == 0 {
		return
	}
	show := diffs
	if len(show) > 5 {
		show = show[:5]
	}
	for _, d := range show {
		t.Errorf("%s: %v", label, d)
	}
	t.Fatalf("%s: %d route diffs between incremental and from-scratch fixpoints", label, len(diffs))
}

// TestIncrementalMatchesScratch is the differential fixpoint harness:
// for every scenario kind, replay the script event by event through
// ApplyEvent and after each event assert the incrementally re-settled
// planes (kind, dist, via) equal a from-scratch convergence on the same
// damaged topology — on the flat engine, on the MapEngine, and across
// the two. The Gao-Rexford fixpoint is unique given the topology state,
// so any disagreement is an incremental-path bug.
func TestIncrementalMatchesScratch(t *testing.T) {
	tg, g := testGraph(t, 300, 5)
	flat := NewEngine(g, DefaultParams())
	ref := NewMapEngine(g, DefaultParams())
	ist, sst := flat.NewState(), flat.NewState()
	mist, msst := ref.NewState(), ref.NewState()
	multihomed := scenario.Multihomed(g)
	for _, kind := range []scenario.Kind{
		scenario.SingleLink, scenario.TwoLinksApart, scenario.TwoLinksShared,
		scenario.NodeFailure, scenario.LinkFlap, scenario.FlapStorm,
		scenario.PrefixWithdraw, scenario.LatencyBrownout,
		scenario.GrayFailure, scenario.OscillatingCongestion,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			script, err := scenario.PickScript(tg, multihomed, kind, rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			events := script.Sorted()
			var dests []topology.ASN
			if kind == scenario.PrefixWithdraw {
				// Withdraw is only meaningful at the withdrawing origin.
				dests = []topology.ASN{script.Dest}
			} else {
				dests, err = Destinations(g, 3, 29)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, dest := range dests {
				if err := flat.InitDest(ist, dest); err != nil {
					t.Fatal(err)
				}
				if err := flat.ConvergeScratch(sst, dest, nil); err != nil {
					t.Fatal(err)
				}
				mustNoDiff(t, "flat init", ist, sst)
				if err := ref.InitDest(mist, dest); err != nil {
					t.Fatal(err)
				}
				for i, ev := range events {
					if _, err := flat.ApplyEvent(ist, ev); err != nil {
						t.Fatalf("event %d %v: %v", i, ev, err)
					}
					if err := flat.ConvergeScratch(sst, dest, events[:i+1]); err != nil {
						t.Fatalf("event %d %v scratch: %v", i, ev, err)
					}
					mustNoDiff(t, ev.String()+" flat", ist, sst)
					if _, err := ref.ApplyEvent(mist, ev); err != nil {
						t.Fatalf("event %d %v map: %v", i, ev, err)
					}
					if err := ref.ConvergeScratch(msst, dest, events[:i+1]); err != nil {
						t.Fatalf("event %d %v map scratch: %v", i, ev, err)
					}
					mustNoDiff(t, ev.String()+" map", mist, msst)
					mustNoDiff(t, ev.String()+" flat-vs-map", ist, mist)
				}
			}
		})
	}
}

// TestApplyEventRequiresInit: ApplyEvent on a state that never converged
// (or was reset) is an error, not silent garbage.
func TestApplyEventRequiresInit(t *testing.T) {
	_, g := testGraph(t, 100, 1)
	eng := NewEngine(g, DefaultParams())
	st := eng.NewState()
	ev := scenario.Event{Op: scenario.OpFailNode, Node: 3}
	if _, err := eng.ApplyEvent(st, ev); err == nil {
		t.Fatal("ApplyEvent on an uninitialized flat state should error")
	}
	ref := NewMapEngine(g, DefaultParams())
	mst := ref.NewState()
	if _, err := ref.ApplyEvent(mst, ev); err == nil {
		t.Fatal("ApplyEvent on an uninitialized map state should error")
	}
}

// TestApplyEventAfterConvergeDest: a state left by the grouped
// ConvergeDest driver is a valid fixpoint to continue incrementally
// from — the two entry points compose.
func TestApplyEventAfterConvergeDest(t *testing.T) {
	_, g := testGraph(t, 200, 9)
	eng := NewEngine(g, DefaultParams())
	script, err := scenario.Named("link-flap", g, 7)
	if err != nil {
		t.Fatal(err)
	}
	events := script.Sorted()
	dests, err := Destinations(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	dest := dests[0]
	ist := eng.NewState()
	if _, err := eng.ConvergeDest(ist, dest, groupEvents(script)); err != nil {
		t.Fatal(err)
	}
	// The flap script is restore-balanced, so its events replay cleanly
	// on the settled topology.
	sst := eng.NewState()
	for i, ev := range events {
		if _, err := eng.ApplyEvent(ist, ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if err := eng.ConvergeScratch(sst, dest, events[:i+1]); err != nil {
			t.Fatal(err)
		}
		mustNoDiff(t, ev.String(), ist, sst)
	}
}

// TestFinishDestMatchesScratchFinals: the final reachability snapshot an
// incremental replay reports equals the from-scratch one (loss and
// round accounting legitimately differ — windows are per event, not per
// offset group — but the fixpoint-derived finals may not).
func TestFinishDestMatchesScratchFinals(t *testing.T) {
	_, g := testGraph(t, 300, 5)
	eng := NewEngine(g, DefaultParams())
	groups := stormGroups(t, g, 19)
	dests, err := Destinations(g, 2, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, dest := range dests {
		ist := eng.NewState()
		if err := eng.InitDest(ist, dest); err != nil {
			t.Fatal(err)
		}
		for _, group := range groups {
			for _, ev := range group {
				if _, err := eng.ApplyEvent(ist, ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		inc := eng.FinishDest(ist)
		out, err := eng.ConvergeDest(eng.NewState(), dest, groups)
		if err != nil {
			t.Fatal(err)
		}
		if inc.BGP.UnreachableFinal != out.BGP.UnreachableFinal ||
			inc.Red.UnreachableFinal != out.Red.UnreachableFinal ||
			inc.Blue.UnreachableFinal != out.Blue.UnreachableFinal {
			t.Fatalf("dest %d: incremental finals (bgp %d, red %d, blue %d) != scratch (bgp %d, red %d, blue %d)",
				dest, inc.BGP.UnreachableFinal, inc.Red.UnreachableFinal, inc.Blue.UnreachableFinal,
				out.BGP.UnreachableFinal, out.Red.UnreachableFinal, out.Blue.UnreachableFinal)
		}
	}
}
