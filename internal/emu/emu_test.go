package emu

import (
	"testing"
	"time"

	"stamp/internal/bgp"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// rigGraph is the 7-AS topology from core's tests: a tier-1 peer pair,
// three transits, and two multihomed edge ASes.
func rigGraph(t testing.TB) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(7)
	mustP := func(c, p topology.ASN) {
		t.Helper()
		if err := g.AddProviderLink(c, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddPeerLink(0, 1); err != nil {
		t.Fatal(err)
	}
	mustP(2, 0)
	mustP(3, 0)
	mustP(4, 1)
	mustP(5, 2)
	mustP(5, 3)
	mustP(5, 4)
	mustP(6, 4)
	mustP(6, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func genGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.GenerateDefault(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runAndDiff runs the live fleet on a script and diffs against the
// simulator reference, reporting any divergence as a test failure.
func runAndDiff(t *testing.T, g *topology.Graph, script scenario.Script, transport string) *Result {
	t.Helper()
	res, err := Run(Options{Graph: g, Transport: transport}, script)
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
	return res
}

func TestRigBothColorsLive(t *testing.T) {
	g := rigGraph(t)
	script := scenario.Script{Name: "none", Dest: 5}
	res := runAndDiff(t, g, script, "pipe")
	// Every AS but the origin must hold both colors (core's
	// TestBothColorsReachEveryone, now over real sessions).
	if got := res.Tables.Routes(bgp.ColorRed); got != 7 {
		t.Errorf("red routes = %d, want 7", got)
	}
	if got := res.Tables.Routes(bgp.ColorBlue); got != 7 {
		t.Errorf("blue routes = %d, want 7", got)
	}
}

func TestRigLinkFailureLive(t *testing.T) {
	g := rigGraph(t)
	script := scenario.Script{Name: "fail-5-2", Dest: 5, Events: []scenario.Event{
		{Op: scenario.OpFailLink, A: 5, B: 2},
	}}
	runAndDiff(t, g, script, "pipe")
}

func TestRigLinkFlapLive(t *testing.T) {
	g := rigGraph(t)
	script := scenario.Script{Name: "flap-5-2", Dest: 5, Events: []scenario.Event{
		{Op: scenario.OpFailLink, A: 5, B: 2},
		{At: 150 * time.Millisecond, Op: scenario.OpRestoreLink, A: 5, B: 2},
	}}
	runAndDiff(t, g, script, "pipe")
}

func TestRigWithdrawLive(t *testing.T) {
	g := rigGraph(t)
	script := scenario.Script{Name: "withdraw", Dest: 5, Events: []scenario.Event{
		{Op: scenario.OpWithdraw, Node: 5},
	}}
	res := runAndDiff(t, g, script, "pipe")
	if got := res.Tables.Routes(bgp.ColorRed) + res.Tables.Routes(bgp.ColorBlue); got != 0 {
		t.Errorf("%d routes survive origin withdrawal", got)
	}
}

func TestRigTCPTransport(t *testing.T) {
	g := rigGraph(t)
	script := scenario.Script{Name: "fail-5-3-tcp", Dest: 5, Events: []scenario.Event{
		{Op: scenario.OpFailLink, A: 5, B: 3},
	}}
	runAndDiff(t, g, script, "tcp")
}

func TestGeneratedTopologyLive(t *testing.T) {
	g := genGraph(t, 40, 1)
	script, err := scenario.Named("link-failure", g, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runAndDiff(t, g, script, "pipe")
	if res.Stats.Updates == 0 {
		t.Error("no updates flowed")
	}
	if res.ConvCDF == nil || res.ConvCDF.Len() == 0 {
		t.Error("no wall-clock convergence samples recorded")
	}
	t.Logf("N=40 live: boot %v, initial %v, scenario %v, %d updates",
		res.Boot, res.InitialConvergence, res.ScenarioConvergence, res.Stats.Updates)
}

func TestFailUnknownLink(t *testing.T) {
	g := rigGraph(t)
	f, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := f.FailLink(0, 6); err == nil {
		t.Error("failing a nonexistent link succeeded")
	}
	if err := f.FailLink(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.FailLink(5, 2); err == nil {
		t.Error("double link failure succeeded")
	}
	if err := f.RestoreLink(5, 3); err == nil {
		t.Error("restoring an up link succeeded")
	}
}

// TestEveryUpdateRetiredOnce checks the in-flight ledger on scripts
// whose failures sever sessions with UPDATEs in transit, over both
// transports. After every WaitConverged nothing is in flight or queued
// and every pushed UPDATE was processed or dropped, once; a lost UPDATE
// the ledger never retired would instead hang WaitConverged into its
// timeout. A fleet closed mid-convergence must balance too, which
// holds only if each severed session pair settles what it lost.
func TestEveryUpdateRetiredOnce(t *testing.T) {
	g := genGraph(t, 80, 3)
	for _, transport := range []string{"pipe", "tcp"} {
		for _, kind := range []string{"node-failure", "two-links-shared", "link-flap"} {
			t.Run(transport+"/"+kind, func(t *testing.T) {
				script, err := scenario.Named(kind, g, 3)
				if err != nil {
					t.Fatal(err)
				}
				f, err := New(Options{Graph: g, Transport: transport, ConvergeTimeout: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if err := f.Boot(); err != nil {
					t.Fatal(err)
				}
				balanced := func(phase string) {
					t.Helper()
					f.flightMu.Lock()
					pushed, processed, dropped := f.pushed, f.processed, f.dropped
					f.flightMu.Unlock()
					if pushed != processed+dropped {
						t.Errorf("%s: pushed %d != processed %d + dropped %d", phase, pushed, processed, dropped)
					}
					t.Logf("%s: pushed %d, processed %d, dropped %d", phase, pushed, processed, dropped)
				}
				converged := func(phase string) {
					t.Helper()
					if err := f.WaitConverged(); err != nil {
						t.Fatalf("%s: %v", phase, err)
					}
					if q := f.queuedUpdates(); q != 0 {
						t.Errorf("%s: %d updates queued after WaitConverged", phase, q)
					}
					balanced(phase)
				}
				f.Originate(script.Dest)
				converged("initial")
				if err := f.RunScript(script); err != nil {
					t.Fatal(err)
				}
				converged("scenario")
				if err := f.Withdraw(script.Dest); err != nil {
					t.Fatal(err)
				}
				f.Close()
				balanced("closed mid-withdrawal")
			})
		}
	}
}
