package topology_test

// These tests use the shared oracles in testkit, which imports topology,
// so they sit in the external test package; the dot import keeps the
// package's own names unqualified.

import (
	"testing"

	"stamp/internal/testkit"
	. "stamp/internal/topology"
)

// diamond builds:
//
//	  0   1      (tier-1 peers)
//	 / \ / \
//	2   3   4    (mid: 2->0; 3->0,1; 4->1)
//	 \  |  /
//	  \ | /
//	    5        (5 -> 2,3,4)
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(6)
	mustP := func(c, p ASN) {
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
	mustP(3, 1)
	mustP(4, 1)
	mustP(5, 2)
	mustP(5, 3)
	mustP(5, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSplitPathUpPeerDown(t *testing.T) {
	g := diamond(t)
	// 5 -> 2 -> 0 (peak) peer 1 -> 4: up, up, peer, down.
	path := []ASN{5, 2, 0, 1, 4}
	split, err := testkit.SplitPath(g, path)
	if err != nil {
		t.Fatalf("SplitPath: %v", err)
	}
	if !split.HasPeerStep {
		t.Error("peer step not detected")
	}
	if split.UphillEnd != 2 {
		t.Errorf("UphillEnd = %d, want 2", split.UphillEnd)
	}
	if split.DownhillStart != 3 {
		t.Errorf("DownhillStart = %d, want 3", split.DownhillStart)
	}
}

func TestSplitPathPureUphill(t *testing.T) {
	g := diamond(t)
	path := []ASN{5, 3, 1}
	split, err := testkit.SplitPath(g, path)
	if err != nil {
		t.Fatalf("SplitPath: %v", err)
	}
	if split.HasPeerStep {
		t.Error("unexpected peer step")
	}
	if split.DownhillStart != 2 {
		t.Errorf("DownhillStart = %d, want 2 (peak only)", split.DownhillStart)
	}
}

func TestSplitPathPureDownhill(t *testing.T) {
	g := diamond(t)
	path := []ASN{0, 3, 5}
	split, err := testkit.SplitPath(g, path)
	if err != nil {
		t.Fatalf("SplitPath: %v", err)
	}
	if split.DownhillStart != 0 {
		t.Errorf("DownhillStart = %d, want 0", split.DownhillStart)
	}
}

func TestSplitPathRejectsValley(t *testing.T) {
	g := diamond(t)
	// 2 -> 5 (down) -> 3 (up): a valley.
	if _, err := testkit.SplitPath(g, []ASN{2, 5, 3}); err == nil {
		t.Error("valley path accepted")
	}
	// Peer step after downhill: 0 -> 3 (down) ... no peer below; use
	// 1 -> 3? 3 is customer of 1, then 3 -> 0 is uphill: also invalid.
	if _, err := testkit.SplitPath(g, []ASN{1, 3, 0}); err == nil {
		t.Error("down-then-up path accepted")
	}
}

func TestSplitPathRejectsNonWalk(t *testing.T) {
	g := diamond(t)
	if _, err := testkit.SplitPath(g, []ASN{5, 0}); err == nil {
		t.Error("non-adjacent hop accepted")
	}
	if _, err := testkit.SplitPath(g, nil); err == nil {
		t.Error("empty path accepted")
	}
}

func TestDownhillNodes(t *testing.T) {
	g := diamond(t)
	down, err := testkit.DownhillNodes(g, []ASN{5, 2, 0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []ASN{1, 4}
	if len(down) != len(want) {
		t.Fatalf("DownhillNodes = %v, want %v", down, want)
	}
	for i := range want {
		if down[i] != want[i] {
			t.Fatalf("DownhillNodes = %v, want %v", down, want)
		}
	}
}

func TestDownhillDisjoint(t *testing.T) {
	g := diamond(t)
	// Both paths end at 5: one descends via 2, the other via 4.
	a := []ASN{0, 2, 5}
	b := []ASN{1, 4, 5}
	ok, err := testkit.DownhillDisjoint(g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("disjoint downhill paths reported overlapping")
	}
	// Same intermediate node 3.
	c := []ASN{0, 3, 5}
	d := []ASN{1, 3, 5}
	ok, err = testkit.DownhillDisjoint(g, c, d)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("overlapping downhill paths reported disjoint")
	}
}

func TestDownhillDisjointErrors(t *testing.T) {
	g := diamond(t)
	if _, err := testkit.DownhillDisjoint(g, []ASN{0, 2, 5}, []ASN{1, 4}); err == nil {
		t.Error("different destinations accepted")
	}
	if _, err := testkit.DownhillDisjoint(g, nil, []ASN{1, 4}); err == nil {
		t.Error("empty path accepted")
	}
}

func TestPathContains(t *testing.T) {
	path := []ASN{5, 3, 1}
	if !PathContainsLink(path, 3, 5) {
		t.Error("link 5-3 (reversed) not found")
	}
	if PathContainsLink(path, 5, 1) {
		t.Error("non-adjacent pair reported as link")
	}
	if !PathContainsAS(path, 3) {
		t.Error("AS 3 not found")
	}
	if PathContainsAS(path, 9) {
		t.Error("AS 9 falsely found")
	}
}
