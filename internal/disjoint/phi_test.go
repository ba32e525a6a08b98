package disjoint_test

// These tests use testkit.PhiAll, and testkit imports disjoint, so they
// sit in the external test package.

import (
	"testing"

	. "stamp/internal/disjoint"
	"stamp/internal/testkit"
	"stamp/internal/topology"
)

func TestPhiSingleHomedChain(t *testing.T) {
	// 3 -> 2 -> {0, 1}: single-homed 3 maps to multihomed ancestor 2.
	g := topology.NewGraph(4)
	mustP := func(c, p topology.ASN) {
		t.Helper()
		if err := g.AddProviderLink(c, p); err != nil {
			t.Fatal(err)
		}
	}
	mustP(2, 0)
	mustP(2, 1)
	mustP(3, 2)
	phi := testkit.PhiAll(g, DefaultPhiOpts())
	if phi[3] != phi[2] {
		t.Errorf("phi[3] = %v != phi[2] = %v (footnote 4 mapping)", phi[3], phi[2])
	}
	if phi[2] != 1.0 {
		t.Errorf("phi[2] = %v, want 1.0 (two disjoint tier-1 paths)", phi[2])
	}
}

func TestPhiAllInRange(t *testing.T) {
	g, err := topology.GenerateDefault(500, 13)
	if err != nil {
		t.Fatal(err)
	}
	phi := testkit.PhiAll(g, DefaultPhiOpts())
	for v, p := range phi {
		if p < 0 || p > 1 {
			t.Fatalf("phi[%d] = %v out of range", v, p)
		}
	}
}
