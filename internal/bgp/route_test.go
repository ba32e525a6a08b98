package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stamp/internal/topology"
)

func TestColorOther(t *testing.T) {
	if ColorRed.Other() != ColorBlue || ColorBlue.Other() != ColorRed {
		t.Error("Other() broken")
	}
	if ColorRed.String() != "red" || ColorBlue.String() != "blue" {
		t.Error("String() broken")
	}
}

func TestRouteClone(t *testing.T) {
	r := &Route{Path: []topology.ASN{1, 2, 3}, From: 1, Lock: true, Color: ColorBlue}
	c := r.Clone()
	c.Path[0] = 99
	if r.Path[0] != 1 {
		t.Error("Clone shares path storage")
	}
	var nilRoute *Route
	if nilRoute.Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestRouteEqual(t *testing.T) {
	a := &Route{Path: []topology.ASN{1, 2}, Lock: true, Color: ColorRed}
	b := &Route{Path: []topology.ASN{1, 2}, Lock: true, Color: ColorRed}
	if !a.Equal(b) {
		t.Error("identical routes not equal")
	}
	b.Lock = false
	if a.Equal(b) {
		t.Error("lock difference ignored")
	}
	b.Lock = true
	b.Color = ColorBlue
	if a.Equal(b) {
		t.Error("color difference ignored")
	}
	if a.Equal(nil) {
		t.Error("nil equality")
	}
	var n1, n2 *Route
	if !n1.Equal(n2) {
		t.Error("nil routes should be equal")
	}
}

func TestLocalPref(t *testing.T) {
	origin := &Route{Origin: true}
	cust := &Route{FromRel: topology.RelCustomer}
	peer := &Route{FromRel: topology.RelPeer}
	prov := &Route{FromRel: topology.RelProvider}
	if !(LocalPref(origin) > LocalPref(cust) && LocalPref(cust) > LocalPref(peer) && LocalPref(peer) > LocalPref(prov)) {
		t.Error("local preference ordering broken")
	}
}

func TestBetterOrdering(t *testing.T) {
	shortProv := &Route{Path: []topology.ASN{9}, From: 9, FromRel: topology.RelProvider}
	longCust := &Route{Path: []topology.ASN{3, 4, 5, 6}, From: 3, FromRel: topology.RelCustomer}
	if !Better(longCust, shortProv) {
		t.Error("prefer-customer violated: long customer route should beat short provider route")
	}
	shortCust := &Route{Path: []topology.ASN{7, 8}, From: 7, FromRel: topology.RelCustomer}
	if !Better(shortCust, longCust) {
		t.Error("shorter path should win at equal preference")
	}
	a := &Route{Path: []topology.ASN{2, 8}, From: 2, FromRel: topology.RelCustomer}
	b := &Route{Path: []topology.ASN{5, 8}, From: 5, FromRel: topology.RelCustomer}
	if !Better(a, b) {
		t.Error("lower neighbor ASN should win the final tie-break")
	}
	if Better(nil, a) || !Better(a, nil) {
		t.Error("nil handling broken")
	}
}

// TestBetterIsStrictOrder property-checks that Better is a strict total
// order on distinct routes: irreflexive and asymmetric.
func TestBetterIsStrictOrder(t *testing.T) {
	gen := func(rng *rand.Rand) *Route {
		rels := []topology.Rel{topology.RelCustomer, topology.RelPeer, topology.RelProvider}
		n := 1 + rng.Intn(4)
		p := make([]topology.ASN, n)
		for i := range p {
			p[i] = topology.ASN(rng.Intn(5))
		}
		return &Route{Path: p, From: p[0], FromRel: rels[rng.Intn(len(rels))]}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := gen(rng), gen(rng)
		if Better(a, b) && Better(b, a) {
			t.Fatalf("Better not asymmetric: %v vs %v", a, b)
		}
		if Better(a, a) {
			t.Fatalf("Better not irreflexive: %v", a)
		}
	}
}

func TestCanExport(t *testing.T) {
	cust := &Route{FromRel: topology.RelCustomer}
	peer := &Route{FromRel: topology.RelPeer}
	prov := &Route{FromRel: topology.RelProvider}
	origin := &Route{Origin: true}

	type tc struct {
		r    *Route
		to   topology.Rel
		want bool
	}
	cases := []tc{
		{cust, topology.RelProvider, true},
		{cust, topology.RelPeer, true},
		{cust, topology.RelCustomer, true},
		{peer, topology.RelProvider, false},
		{peer, topology.RelPeer, false},
		{peer, topology.RelCustomer, true},
		{prov, topology.RelProvider, false},
		{prov, topology.RelPeer, false},
		{prov, topology.RelCustomer, true},
		{origin, topology.RelProvider, true},
		{nil, topology.RelCustomer, false},
	}
	for _, c := range cases {
		if got := CanExport(c.r, c.to); got != c.want {
			t.Errorf("CanExport(%v, %v) = %v, want %v", c.r, c.to, got, c.want)
		}
	}
}

func TestAdvertised(t *testing.T) {
	base := &Route{Path: []topology.ASN{4, 5}, From: 4, Lock: true, Color: ColorRed}
	adv := Advertised(7, base, false, ColorBlue)
	want := []topology.ASN{7, 4, 5}
	if len(adv.Path) != len(want) {
		t.Fatalf("path = %v, want %v", adv.Path, want)
	}
	for i := range want {
		if adv.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", adv.Path, want)
		}
	}
	if adv.Lock {
		t.Error("lock should be forced to the given value")
	}
	if adv.Color != ColorBlue {
		t.Error("color not set")
	}
	// The base must not be aliased.
	adv.Path[1] = 99
	if base.Path[0] != 4 {
		t.Error("Advertised aliases base path")
	}
}

// TestAdvertisedProperty checks Path/Lock/Color invariants with quick.
func TestAdvertisedProperty(t *testing.T) {
	f := func(self uint8, hops []uint8, lock bool) bool {
		base := &Route{Path: make([]topology.ASN, len(hops))}
		for i, h := range hops {
			base.Path[i] = topology.ASN(h)
		}
		adv := Advertised(topology.ASN(self), base, lock, ColorBlue)
		if len(adv.Path) != len(base.Path)+1 || adv.Path[0] != topology.ASN(self) {
			return false
		}
		return adv.Lock == lock && adv.Color == ColorBlue
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEqualsAdvertisedProperty checks EqualsAdvertised against
// Advertised(...).Equal. Values are drawn from a tiny domain so that
// equal routes come up often.
func TestEqualsAdvertisedProperty(t *testing.T) {
	f := func(self uint8, hops, rPath []uint8, origin, lock, rLock, blue, rBlue bool) bool {
		small := func(v uint8) topology.ASN { return topology.ASN(v % 2) }
		base := &Route{}
		for _, h := range hops[:len(hops)%4] {
			base.Path = append(base.Path, small(h))
		}
		r := &Route{Origin: origin && self%4 == 0, Lock: rLock, Color: ColorRed}
		if rBlue {
			r.Color = ColorBlue
		}
		for _, h := range rPath[:len(rPath)%5] {
			r.Path = append(r.Path, small(h))
		}
		c := ColorRed
		if blue {
			c = ColorBlue
		}
		want := Advertised(small(self), base, lock, c).Equal(r)
		return r.EqualsAdvertised(small(self), base, lock, c) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	var nilRoute *Route
	if nilRoute.EqualsAdvertised(1, &Route{}, false, ColorRed) {
		t.Error("nil route equals an advertisement")
	}
}

func TestCauseRouteAffected(t *testing.T) {
	r := &Route{Path: []topology.ASN{1, 2, 3}}
	link := &Cause{A: 2, B: 3}
	if !link.RouteAffected(r) {
		t.Error("link cause on path not detected")
	}
	rev := &Cause{A: 3, B: 2}
	if !rev.RouteAffected(r) {
		t.Error("reversed link cause not detected")
	}
	miss := &Cause{A: 1, B: 3}
	if miss.RouteAffected(r) {
		t.Error("non-adjacent pair matched")
	}
	node := &Cause{A: 2, B: -1}
	if !node.IsNode() || !node.RouteAffected(r) {
		t.Error("node cause not detected")
	}
	if (&Cause{A: 9, B: -1}).RouteAffected(r) {
		t.Error("unrelated node matched")
	}
	if link.RouteAffected(nil) {
		t.Error("nil route affected")
	}
}

func TestMsgString(t *testing.T) {
	m := Msg{Withdraw: true, Color: ColorBlue}
	if m.String() == "" {
		t.Error("empty String for withdraw")
	}
	m2 := Msg{Route: &Route{Path: []topology.ASN{1}}, CausedByLoss: true}
	if m2.String() == "" {
		t.Error("empty String for update")
	}
}
