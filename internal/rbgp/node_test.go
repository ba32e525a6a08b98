package rbgp

import (
	"testing"

	"stamp/internal/bgp"
	"stamp/internal/sim"
	"stamp/internal/topology"
)

// rig: a diamond where 3's only path to dest 4 is via 1 or 2:
//
//	  0          tier-1
//	 / \
//	1   2        1,2 -> 0
//	 \ / \
//	  4   3      dest 4 -> {1,2}; 3 -> 2
type rig struct {
	g     *topology.Graph
	e     *sim.Engine
	net   *sim.Network
	nodes []*Node
}

func newRig(t *testing.T, rci bool, seed int64) *rig {
	t.Helper()
	g := topology.NewGraph(5)
	mustP := func(c, p topology.ASN) {
		t.Helper()
		if err := g.AddProviderLink(c, p); err != nil {
			t.Fatal(err)
		}
	}
	mustP(1, 0)
	mustP(2, 0)
	mustP(4, 1)
	mustP(4, 2)
	mustP(3, 2)
	e := sim.NewEngine(sim.DefaultParams(), seed)
	net := sim.NewNetwork(e, g)
	r := &rig{g: g, e: e, net: net, nodes: make([]*Node, g.Len())}
	for a := 0; a < g.Len(); a++ {
		r.nodes[a] = NewNode(topology.ASN(a), g, e, net, rci)
	}
	return r
}

func (r *rig) converge(t *testing.T) {
	t.Helper()
	if _, err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRBGPConvergesLikeBGP(t *testing.T) {
	r := newRig(t, true, 1)
	r.nodes[4].Originate()
	r.converge(t)
	for a := 0; a < r.g.Len(); a++ {
		if a == 4 {
			continue
		}
		if r.nodes[a].Sp.Best() == nil {
			t.Errorf("AS %d has no route", a)
		}
	}
	// 3's route must be via 2 (its only provider).
	if b := r.nodes[3].Sp.Best(); b == nil || b.From != 2 {
		t.Errorf("3's best = %v, want via 2", b)
	}
}

func TestFailoverAdvertisedToNextHop(t *testing.T) {
	r := newRig(t, true, 2)
	r.nodes[4].Originate()
	r.converge(t)
	// 0 (tier-1) has customer routes via 1 and 2; its best is via 1
	// (lowest ASN at equal length); it must advertise the alternate (via
	// 2) to 1 as a failover.
	fo := r.nodes[1].FailoverIn()
	if len(fo) == 0 {
		t.Fatal("1 received no failover routes")
	}
	if f, ok := fo[0]; !ok || f.ContainsAS(1) {
		t.Errorf("failover from 0 = %v, want a 1-free alternate", f)
	}
}

func TestPrimaryAndDeflect(t *testing.T) {
	r := newRig(t, true, 3)
	r.nodes[4].Originate()
	r.converge(t)

	nh, ok := r.nodes[3].Primary()
	if !ok || nh != 2 {
		t.Fatalf("3's primary = %d/%v, want 2", nh, ok)
	}
	if nh, ok := r.nodes[4].Primary(); !ok || nh != 4 {
		t.Errorf("origin primary = %d/%v, want self", nh, ok)
	}
	// After killing 2-4, 2 must deflect packets onto a live path.
	if err := r.net.FailLink(2, 4); err != nil {
		t.Fatal(err)
	}
	r.converge(t)
	if path := r.nodes[2].Deflect(3); path == nil {
		t.Error("2 has no deflection path after failure despite alternatives via 0")
	} else if topology.PathContainsLink(append([]topology.ASN{2}, path...), 2, 4) {
		t.Errorf("deflection path %v crosses the failed link", path)
	}
}

func TestRCIPurgesStaleRoutes(t *testing.T) {
	r := newRig(t, true, 4)
	r.nodes[4].Originate()
	r.converge(t)
	// 3's route is [2 4]. Failing link 2-4 with RCI must purge it at 3 as
	// soon as the withdrawal arrives, replaced by 2's re-announcement via
	// 0 — never a stale [2 4].
	if err := r.net.FailLink(2, 4); err != nil {
		t.Fatal(err)
	}
	r.converge(t)
	b := r.nodes[3].Sp.Best()
	if b == nil {
		t.Fatal("3 lost its route permanently")
	}
	if b.ContainsLink(2, 4) {
		t.Errorf("3's best %v still crosses the failed link", b)
	}
}

func TestRCICausePropagates(t *testing.T) {
	r := newRig(t, true, 5)
	r.nodes[4].Originate()
	r.converge(t)
	sawCause := false
	r.net.MsgHook = func(from, to topology.ASN, payload any) {
		if m, ok := payload.(bgp.Msg); ok && m.RootCause != nil {
			sawCause = true
		}
	}
	if err := r.net.FailLink(1, 4); err != nil {
		t.Fatal(err)
	}
	r.converge(t)
	if !sawCause {
		t.Error("no message carried root cause information")
	}
}

func TestNoRCINoCause(t *testing.T) {
	r := newRig(t, false, 6)
	r.nodes[4].Originate()
	r.converge(t)
	sawCause := false
	r.net.MsgHook = func(from, to topology.ASN, payload any) {
		if m, ok := payload.(bgp.Msg); ok && m.RootCause != nil {
			sawCause = true
		}
	}
	if err := r.net.FailLink(1, 4); err != nil {
		t.Fatal(err)
	}
	r.converge(t)
	if sawCause {
		t.Error("RCI-disabled node sent root cause information")
	}
}

func TestFailoverWithdrawnWhenNextHopChanges(t *testing.T) {
	r := newRig(t, true, 7)
	r.nodes[4].Originate()
	r.converge(t)
	// 0's next hop is 1; failing 0-1 forces 0's best onto 2 and its
	// failover advertisement must move with it.
	if err := r.net.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	r.converge(t)
	if len(r.nodes[1].FailoverIn()) != 0 {
		t.Error("1 retains a failover route over a dead session")
	}
	if b := r.nodes[0].Sp.Best(); b == nil || b.From != 2 {
		t.Errorf("0's best = %v, want via 2", b)
	}
}

func TestEffBestFallsBackToFailover(t *testing.T) {
	r := newRig(t, true, 8)
	r.nodes[4].Originate()
	r.converge(t)
	// Fail both of 2's routes' sources at once: 2-4 (direct) and 2-0
	// (provider). 2 is left with only its failoverIn (from 4? no — from
	// neighbors routing through it, i.e. 3 has nothing to offer).
	// Instead check the origin-adjacent case: fail 1-4; 1's rib loses the
	// direct route but keeps 0's announcement.
	if err := r.net.FailLink(1, 4); err != nil {
		t.Fatal(err)
	}
	r.converge(t)
	if b := r.nodes[1].Sp.Best(); b == nil {
		// Decision RIB may be empty if 0's announcement was suppressed;
		// effBest must still provide the failover path.
		if _, ok := r.nodes[1].Primary(); ok {
			t.Error("Primary ok with empty decision RIB")
		}
		if r.nodes[1].Deflect(-1) == nil {
			t.Error("1 has neither route nor failover after single failure")
		}
	}
}

func TestWithdrawOriginRBGP(t *testing.T) {
	r := newRig(t, true, 9)
	r.nodes[4].Originate()
	r.converge(t)
	r.nodes[4].WithdrawOrigin()
	r.converge(t)
	for a := 0; a < 4; a++ {
		if b := r.nodes[a].Sp.Best(); b != nil {
			t.Errorf("AS %d retains %v after origin withdrawal", a, b)
		}
	}
}

// FailoverIn exposes the received failover routes (for tests and
// diagnostics).
func (n *Node) FailoverIn() map[topology.ASN]*bgp.Route { return n.failoverIn }
