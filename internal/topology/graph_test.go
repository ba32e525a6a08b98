package topology

import (
	"testing"
)

// line builds the chain 0 <- 1 <- ... <- n-1 where i+1's provider is i.
func line(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		if err := g.AddProviderLink(ASN(i), ASN(i-1)); err != nil {
			t.Fatalf("AddProviderLink: %v", err)
		}
	}
	return g
}

func TestAddProviderLink(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatalf("add: %v", err)
	}
	if got := g.Rel(1, 0); got != RelProvider {
		t.Errorf("Rel(1,0) = %v, want provider", got)
	}
	if got := g.Rel(0, 1); got != RelCustomer {
		t.Errorf("Rel(0,1) = %v, want customer", got)
	}
	if got := g.Rel(0, 2); got != RelNone {
		t.Errorf("Rel(0,2) = %v, want none", got)
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddProviderLink(0, 0); err == nil {
		t.Error("self provider link accepted")
	}
	if err := g.AddPeerLink(1, 1); err == nil {
		t.Error("self peer link accepted")
	}
	if err := g.AddProviderLink(0, 5); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := g.AddProviderLink(1, 0); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := g.AddPeerLink(0, 1); err == nil {
		t.Error("peer link over existing provider link accepted")
	}
}

func TestPeerLinkSymmetry(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddPeerLink(0, 1); err != nil {
		t.Fatalf("add: %v", err)
	}
	if g.Rel(0, 1) != RelPeer || g.Rel(1, 0) != RelPeer {
		t.Error("peer link not symmetric")
	}
}

func TestRelInvert(t *testing.T) {
	cases := map[Rel]Rel{
		RelCustomer: RelProvider,
		RelProvider: RelCustomer,
		RelPeer:     RelPeer,
		RelNone:     RelNone,
	}
	for in, want := range cases {
		if got := in.Invert(); got != want {
			t.Errorf("%v.Invert() = %v, want %v", in, got, want)
		}
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := NewGraph(3)
	for _, l := range [][2]ASN{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddProviderLink(l[0], l[1]); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if err := g.Validate(); err == nil {
		t.Error("provider cycle not detected")
	}
}

func TestValidateAcceptsDAG(t *testing.T) {
	g := line(t, 10)
	if err := g.Validate(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
}

func TestTiers(t *testing.T) {
	// 0 is tier-1, 1 and 2 customers of 0, 3 customer of 2.
	g := NewGraph(4)
	mustLink := func(c, p ASN) {
		t.Helper()
		if err := g.AddProviderLink(c, p); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(1, 0)
	mustLink(2, 0)
	mustLink(3, 2)
	tiers := g.Tiers()
	want := []int{1, 2, 2, 3}
	for i := range want {
		if tiers[i] != want[i] {
			t.Errorf("tier[%d] = %d, want %d", i, tiers[i], want[i])
		}
	}
}

func TestTier1s(t *testing.T) {
	g := line(t, 4)
	t1 := g.Tier1s()
	if len(t1) != 1 || t1[0] != 0 {
		t.Errorf("Tier1s = %v, want [0]", t1)
	}
}

func TestIsMultihomed(t *testing.T) {
	g := NewGraph(4)
	for _, p := range []ASN{0, 1} {
		if err := g.AddProviderLink(3, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddProviderLink(2, 0); err != nil {
		t.Fatal(err)
	}
	if !g.IsMultihomed(3) {
		t.Error("AS 3 with two providers not multihomed")
	}
	if g.IsMultihomed(2) {
		t.Error("AS 2 with one provider reported multihomed")
	}
}

func TestEdgeCountAndLinks(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeerLink(2, 3); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeCount(); got != 2 {
		t.Errorf("EdgeCount = %d, want 2", got)
	}
	links := g.Links()
	if len(links) != 2 {
		t.Fatalf("Links = %v, want 2 entries", links)
	}
	if links[0].Rel != RelProvider || links[0].A != 1 || links[0].B != 0 {
		t.Errorf("first link = %+v, want 1->0 provider", links[0])
	}
	if links[1].Rel != RelPeer {
		t.Errorf("second link = %+v, want peer", links[1])
	}
}

func TestFirstMultihomedAncestor(t *testing.T) {
	// 4 -> 3 -> {0, 1}; 2 -> 0. AS 4 single-homed, 3 multihomed.
	g := NewGraph(5)
	mustLink := func(c, p ASN) {
		t.Helper()
		if err := g.AddProviderLink(c, p); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(3, 0)
	mustLink(3, 1)
	mustLink(4, 3)
	mustLink(2, 0)
	if m, ok := g.FirstMultihomedAncestor(4); !ok || m != 3 {
		t.Errorf("ancestor(4) = %d,%v; want 3,true", m, ok)
	}
	if m, ok := g.FirstMultihomedAncestor(3); !ok || m != 3 {
		t.Errorf("ancestor(3) = %d,%v; want 3,true (itself)", m, ok)
	}
	if _, ok := g.FirstMultihomedAncestor(2); ok {
		t.Error("ancestor(2) should not exist (chain ends at single-homed tier-1)")
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeerLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddProviderLink(3, 1); err != nil {
		t.Fatal(err)
	}
	var nbrs []ASN
	nbrs = g.Neighbors(nbrs, 1)
	if len(nbrs) != 3 {
		t.Errorf("Neighbors(1) = %v, want 3 entries", nbrs)
	}
	if g.Degree(1) != 3 {
		t.Errorf("Degree(1) = %d, want 3", g.Degree(1))
	}
}
