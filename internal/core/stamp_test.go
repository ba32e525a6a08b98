package core

import (
	"math/rand"
	"testing"

	"stamp/internal/bgp"
	"stamp/internal/sim"
	"stamp/internal/testkit"
	"stamp/internal/topology"
)

// rig is a 7-AS test topology:
//
//	  0 === 1      tier-1 peer clique
//	 / \   / \
//	2   3 4   \    transit: 2,3 -> 0; 4 -> 1
//	 \  |  |  /
//	  \ | /| /
//	    5  6       5 -> {2,3,4}; 6 -> {4,1}
type rig struct {
	g     *topology.Graph
	e     *sim.Engine
	net   *sim.Network
	nodes []*Node
}

func newRig(t *testing.T, seed int64) *rig {
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
	e := sim.NewEngine(sim.DefaultParams(), seed)
	net := sim.NewNetwork(e, g)
	r := &rig{g: g, e: e, net: net, nodes: make([]*Node, g.Len())}
	for a := 0; a < g.Len(); a++ {
		r.nodes[a] = NewNode(topology.ASN(a), g, e, net)
	}
	return r
}

func (r *rig) converge(t *testing.T) {
	t.Helper()
	if _, err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOriginColoring(t *testing.T) {
	r := newRig(t, 1)
	origin := r.nodes[5] // multihomed: providers 2, 3, 4
	origin.BluePick = FixedBluePicker(3)
	origin.Originate()
	r.converge(t)

	if lb := origin.LockedProvider(); lb != 3 {
		t.Fatalf("locked provider = %d, want 3", lb)
	}
	// Blue goes to 3 with Lock; red to 2 and 4; never both to one
	// provider.
	for _, p := range []topology.ASN{2, 3, 4} {
		red := origin.Red.Desired(p).Route
		blue := origin.Blue.Desired(p).Route
		if p == 3 {
			if blue == nil || !blue.Lock {
				t.Errorf("provider 3: blue = %v, want locked announcement", blue)
			}
			if red != nil {
				t.Errorf("provider 3: red announced alongside locked blue")
			}
			continue
		}
		if red == nil {
			t.Errorf("provider %d: no red announcement", p)
		}
		if blue != nil {
			t.Errorf("provider %d: unexpected blue announcement %v", p, blue)
		}
	}
}

func TestBothColorsReachEveryone(t *testing.T) {
	r := newRig(t, 2)
	r.nodes[5].BluePick = FixedBluePicker(4)
	r.nodes[5].Originate()
	r.converge(t)
	for a := 0; a < r.g.Len(); a++ {
		if a == 5 {
			continue
		}
		if r.nodes[a].Blue.Best() == nil {
			t.Errorf("AS %d has no blue route", a)
		}
		if r.nodes[a].Red.Best() == nil {
			t.Errorf("AS %d has no red route", a)
		}
	}
}

func TestDownhillDisjointInRig(t *testing.T) {
	r := newRig(t, 3)
	r.nodes[5].BluePick = FixedBluePicker(4)
	r.nodes[5].Originate()
	r.converge(t)
	// 6's blue path must descend via 4 (locked chain via 1 or directly);
	// its red path must avoid 4 below the peak.
	six := r.nodes[6]
	red, blue := six.Red.Best(), six.Blue.Best()
	if red == nil || blue == nil {
		t.Fatalf("6 lacks routes: red=%v blue=%v", red, blue)
	}
	rp := append([]topology.ASN{6}, red.Path...)
	bp := append([]topology.ASN{6}, blue.Path...)
	ok, err := testkit.DownhillDisjoint(r.g, rp, bp)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("red %v and blue %v share downhill nodes", rp, bp)
	}
}

func TestSingleProviderAnnouncesBothColors(t *testing.T) {
	// Chain below a multihomed AS: add no special AS here; instead use 6
	// as origin? 6 is multihomed. Use 2: single provider 0... 2's
	// customers: 5. Make 2 the origin via a fresh rig where 2 originates.
	r := newRig(t, 4)
	origin := r.nodes[2] // single provider: 0
	origin.Originate()
	r.converge(t)
	red := origin.Red.Desired(0).Route
	blue := origin.Blue.Desired(0).Route
	if red == nil || blue == nil {
		t.Fatalf("single-provider origin: red=%v blue=%v, want both announced", red, blue)
	}
	if !blue.Lock {
		t.Error("single-provider origin must send locked blue upward (footnote 4)")
	}
}

func TestLockRepickOnFailureKeepsRed(t *testing.T) {
	r := newRig(t, 5)
	origin := r.nodes[5]
	origin.BluePick = FixedBluePicker(3)
	origin.Originate()
	r.converge(t)

	if err := r.net.FailLink(5, 3); err != nil {
		t.Fatal(err)
	}
	r.converge(t)

	lb := origin.LockedProvider()
	if lb == 3 || lb < 0 {
		t.Fatalf("locked provider after failure = %d, want re-picked among {2,4}", lb)
	}
	// The re-picked provider keeps its red announcement (lockMoved
	// overlap) so the red plane stays untouched.
	if origin.Red.Desired(lb).Route == nil {
		t.Errorf("red announcement yanked from new locked provider %d", lb)
	}
	if b := origin.Blue.Desired(lb).Route; b == nil || !b.Lock {
		t.Errorf("new locked provider %d lacks locked blue announcement", lb)
	}
}

func TestWithdrawOrigin(t *testing.T) {
	r := newRig(t, 6)
	r.nodes[5].Originate()
	r.converge(t)
	r.nodes[5].WithdrawOrigin()
	r.converge(t)
	for a := 0; a < r.g.Len(); a++ {
		if r.nodes[a].Red.Best() != nil || r.nodes[a].Blue.Best() != nil {
			t.Errorf("AS %d retains routes after origin withdrawal", a)
		}
	}
}

func TestPreferredColorFallback(t *testing.T) {
	r := newRig(t, 7)
	r.nodes[5].Originate()
	r.converge(t)
	n := r.nodes[6]
	if c := n.Preferred(); c != bgp.ColorRed {
		t.Errorf("preferred = %v, want red when both stable", c)
	}
	// Flag red unstable: preference flips to blue.
	n.Red.Unstable = true
	if c := n.Preferred(); c != bgp.ColorBlue {
		t.Errorf("preferred = %v, want blue when red unstable", c)
	}
	n.Red.Unstable = false
}

func TestUnstableWhenLinkDown(t *testing.T) {
	r := newRig(t, 8)
	r.nodes[5].Originate()
	r.converge(t)
	n := r.nodes[6]
	red := n.Red.Best()
	if red == nil {
		t.Fatal("6 has no red route")
	}
	// Kill the link under red's next hop without letting 6 process the
	// notification yet: Unstable must still report true via link state.
	if err := r.net.FailLink(6, red.From); err != nil {
		t.Fatal(err)
	}
	if !n.Unstable(bgp.ColorRed) {
		t.Error("red not reported unstable over a dead link")
	}
	r.converge(t)
}

func TestFixedBluePickerFallsBack(t *testing.T) {
	pick := FixedBluePicker(99)
	e := sim.NewEngine(sim.DefaultParams(), 1)
	got := pick(e.Rand(), []topology.ASN{7, 8})
	if got != 7 && got != 8 {
		t.Errorf("fallback pick = %d, want one of the candidates", got)
	}
	if got := pick(e.Rand(), []topology.ASN{7, 99}); got != 99 {
		t.Errorf("pick = %d, want preferred 99", got)
	}
}

func TestStampIgnoresForeignPayloads(t *testing.T) {
	r := newRig(t, 9)
	r.nodes[5].Originate()
	r.converge(t)
	// Unknown payloads and failover messages must be ignored without
	// disturbing the RIB.
	before := ribIn(r.nodes[6].Red, 4)
	r.nodes[6].Recv(4, "garbage")
	r.nodes[6].Recv(4, bgp.Msg{Failover: true, Route: &bgp.Route{Path: []topology.ASN{4, 9}}})
	after := ribIn(r.nodes[6].Red, 4)
	if before != after {
		t.Error("foreign payload disturbed the RIB")
	}
}

// FixedBluePicker always prefers the given provider when it is a valid
// candidate (used for intelligent selection and in tests).
func FixedBluePicker(preferred topology.ASN) BluePicker {
	return func(rng *rand.Rand, candidates []topology.ASN) topology.ASN {
		for _, c := range candidates {
			if c == preferred {
				return c
			}
		}
		return candidates[rng.Intn(len(candidates))]
	}
}

// ribIn returns the route sp learned from nbr (nil if none).
func ribIn(sp *bgp.Speaker, nbr topology.ASN) *bgp.Route {
	var got *bgp.Route
	sp.RibInAll(func(from topology.ASN, r *bgp.Route) {
		if from == nbr {
			got = r
		}
	})
	return got
}

// LockedProvider returns the current sticky locked blue provider (-1 when
// unset).
func (n *Node) LockedProvider() topology.ASN { return n.lockedProvider }
