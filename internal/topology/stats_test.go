package topology_test

// These tests use the shared oracles in testkit, which imports topology,
// so they sit in the external test package; the dot import keeps the
// package's own names unqualified.

import (
	"testing"

	"stamp/internal/testkit"
	. "stamp/internal/topology"
)

func TestWithoutLinks(t *testing.T) {
	g := diamond(t)
	g2 := testkit.WithoutLinks(g, [][2]ASN{{5, 3}, {0, 1}})
	if g2.Rel(5, 3) != RelNone {
		t.Error("provider link survived removal")
	}
	if g2.Rel(0, 1) != RelNone {
		t.Error("peer link survived removal")
	}
	if g2.Rel(5, 2) != RelProvider {
		t.Error("unrelated link removed")
	}
	// Reversed order must also match.
	g3 := testkit.WithoutLinks(g, [][2]ASN{{3, 5}})
	if g3.Rel(5, 3) != RelNone {
		t.Error("reversed link spec not honored")
	}
	// Original untouched.
	if g.Rel(5, 3) != RelProvider {
		t.Error("original graph mutated")
	}
	if err := g2.Validate(); err != nil {
		t.Errorf("masked graph invalid: %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond(t)
	s := ComputeStats(g)
	if s.ASes != 6 {
		t.Errorf("ASes = %d", s.ASes)
	}
	if s.Tier1s != 2 {
		t.Errorf("Tier1s = %d", s.Tier1s)
	}
	if s.PeerLinks != 1 {
		t.Errorf("PeerLinks = %d", s.PeerLinks)
	}
	if s.Multihomed != 2 { // 3 and 5
		t.Errorf("Multihomed = %d", s.Multihomed)
	}
	if s.StubASes != 1 { // only 5 has no customers
		t.Errorf("StubASes = %d", s.StubASes)
	}
	if s.MaxTier != 3 {
		t.Errorf("MaxTier = %d", s.MaxTier)
	}
	if s.MeanDegree <= 0 || s.MaxDegree < 3 {
		t.Errorf("degree stats: %+v", s)
	}
}

func TestCustomerCone(t *testing.T) {
	g := diamond(t)
	cone := testkit.CustomerCone(g, 0)
	// 0's cone: itself, 2, 3, 5.
	want := []ASN{0, 2, 3, 5}
	if len(cone) != len(want) {
		t.Fatalf("cone = %v, want %v", cone, want)
	}
	for i := range want {
		if cone[i] != want[i] {
			t.Fatalf("cone = %v, want %v", cone, want)
		}
	}
	if got := testkit.CustomerCone(g, 5); len(got) != 1 || got[0] != 5 {
		t.Errorf("stub cone = %v, want [5]", got)
	}
}
