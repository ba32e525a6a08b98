package disjoint

import (
	"math"
	"math/rand"
	"testing"

	"stamp/internal/topology"
)

// diamond: two tier-1s (0,1 peered), three mid ASes, one bottom AS with
// three providers — the same shape as the topology package's test graph.
func diamond(t testing.TB) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(6)
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
	mustP(3, 1)
	mustP(4, 1)
	mustP(5, 2)
	mustP(5, 3)
	mustP(5, 4)
	return g
}

func TestUphillCounts(t *testing.T) {
	g := diamond(t)
	counts := UphillCounts(g)
	// Tier-1s count one empty path each.
	if counts[0] != 1 || counts[1] != 1 {
		t.Errorf("tier-1 counts = %v, %v, want 1, 1", counts[0], counts[1])
	}
	// 3 has two providers, both tier-1: 2 paths. 2 and 4 have one each.
	if counts[3] != 2 || counts[2] != 1 || counts[4] != 1 {
		t.Errorf("mid counts = %v", counts[2:5])
	}
	// 5: via 2 (1) + via 3 (2) + via 4 (1) = 4.
	if counts[5] != 4 {
		t.Errorf("counts[5] = %v, want 4", counts[5])
	}
}

func TestSampleUphillPathUniform(t *testing.T) {
	g := diamond(t)
	counts := UphillCounts(g)
	rng := rand.New(rand.NewSource(1))
	freq := map[string]int{}
	const trials = 8000
	for i := 0; i < trials; i++ {
		p := SampleUphillPath(g, counts, rng, 5)
		key := ""
		for _, v := range p {
			key += string(rune('a' + v))
		}
		freq[key]++
	}
	if len(freq) != 4 {
		t.Fatalf("sampled %d distinct paths, want 4: %v", len(freq), freq)
	}
	for key, c := range freq {
		got := float64(c) / trials
		if math.Abs(got-0.25) > 0.03 {
			t.Errorf("path %q frequency %.3f, want 0.25 (uniform)", key, got)
		}
	}
}

func TestGoodLockedPath(t *testing.T) {
	g := diamond(t)
	// Locked path 5-2-0: disjoint alternative exists (5-4-1).
	if !GoodLockedPath(g, []topology.ASN{5, 2, 0}) {
		t.Error("5-2-0 should be good")
	}
	// From 2: only provider 0, locked path 2-0 blocks the sole tier-1
	// route; no disjoint alternative.
	if GoodLockedPath(g, []topology.ASN{2, 0}) {
		t.Error("2-0 cannot have a disjoint alternative")
	}
	if GoodLockedPath(g, nil) {
		t.Error("empty path should not be good")
	}
}

func TestPhiExact(t *testing.T) {
	g := diamond(t)
	counts := UphillCounts(g)
	rng := rand.New(rand.NewSource(1))
	// For 5: paths 5-2-0, 5-3-0, 5-3-1, 5-4-1. Each leaves a disjoint
	// alternative (e.g. blocking 2,0 leaves 4,1). Check each:
	//   5-2-0: alternative 5-4-1 ✓
	//   5-3-0: alternative 5-4-1 ✓
	//   5-3-1: alternative 5-2-0 ✓
	//   5-4-1: alternative 5-2-0 ✓
	phi := Phi(g, counts, 5, DefaultPhiOpts(), rng)
	if phi != 1.0 {
		t.Errorf("Phi(5) = %v, want 1.0", phi)
	}
	// 3 is multi-homed with paths 3-0 and 3-1; blocking 0 leaves 3-1 ✓,
	// blocking 1 leaves 3-0 ✓.
	if phi := Phi(g, counts, 3, DefaultPhiOpts(), rng); phi != 1.0 {
		t.Errorf("Phi(3) = %v, want 1.0", phi)
	}
	// Tier-1 destination: defined as 1.
	if phi := Phi(g, counts, 0, DefaultPhiOpts(), rng); phi != 1.0 {
		t.Errorf("Phi(tier-1) = %v, want 1.0", phi)
	}
}

func TestPhiIntelligentAtLeastRandom(t *testing.T) {
	g, err := topology.GenerateDefault(600, 19)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultPhiOpts()
	opts.Samples = 64
	counts := UphillCounts(g)
	rng := rand.New(rand.NewSource(5))
	worse := 0
	checked := 0
	for a := 0; a < g.Len() && checked < 60; a++ {
		m := topology.ASN(a)
		if !g.IsMultihomed(m) {
			continue
		}
		checked++
		pr := Phi(g, counts, m, opts, rng)
		pi, _ := PhiIntelligent(g, counts, m, opts, rng)
		// Intelligent = max over first hops must beat the mixture, up to
		// sampling noise.
		if pi < pr-0.12 {
			worse++
		}
	}
	if worse > 3 {
		t.Errorf("intelligent selection worse than random at %d/%d destinations", worse, checked)
	}
}

func TestBestBlueProvider(t *testing.T) {
	g := diamond(t)
	b := BestBlueProvider(g, 5, DefaultPhiOpts())
	if b < 0 {
		t.Error("no provider picked for multihomed AS")
	}
	found := false
	for _, p := range g.Providers(5) {
		if p == b {
			found = true
		}
	}
	if !found {
		t.Errorf("picked %d is not a provider of 5", b)
	}
}

func TestTwoDisjointUphillPaths(t *testing.T) {
	g := diamond(t)
	if !TwoDisjointUphillPaths(g, 5) {
		t.Error("5 has disjoint paths via 2-0 and 4-1")
	}
	if !TwoDisjointUphillPaths(g, 3) {
		t.Error("3 has disjoint paths 0 and 1 directly")
	}
	if TwoDisjointUphillPaths(g, 2) {
		t.Error("2 has only one provider")
	}
	if TwoDisjointUphillPaths(g, 0) {
		t.Error("tier-1 has no uphill paths")
	}
}

func TestTwoDisjointSharedBottleneck(t *testing.T) {
	// 3 -> {1, 2}, both 1 and 2 -> 0 (single tier-1): paths share the
	// tier-1 endpoint, so no two disjoint paths to distinct tier-1s.
	g := topology.NewGraph(4)
	mustP := func(c, p topology.ASN) {
		t.Helper()
		if err := g.AddProviderLink(c, p); err != nil {
			t.Fatal(err)
		}
	}
	mustP(1, 0)
	mustP(2, 0)
	mustP(3, 1)
	mustP(3, 2)
	if TwoDisjointUphillPaths(g, 3) {
		t.Error("single tier-1 cannot terminate two disjoint paths")
	}
}

func TestPartialDeploymentBounds(t *testing.T) {
	g, err := topology.GenerateDefault(400, 23)
	if err != nil {
		t.Fatal(err)
	}
	tier1 := make(map[topology.ASN]bool)
	for _, v := range g.Tier1s() {
		tier1[v] = true
	}
	vals := PartialDeployment(g, func(a topology.ASN) bool { return tier1[a] })
	if len(vals) != g.Len() {
		t.Fatalf("got %d values", len(vals))
	}
	frac := 0.0
	for _, v := range vals {
		if v != 0 && v != 1 {
			t.Fatalf("non-indicator value %v", v)
		}
		frac += v
	}
	frac /= float64(len(vals))
	if frac <= 0 || frac >= 1 {
		t.Errorf("partial deployment fraction = %v, want in (0,1)", frac)
	}
	t.Logf("tier-1-only deployment protects %.1f%% of ASes", 100*frac)
}

// BestBlueProvider returns the intelligent locked-blue-provider choice for
// m, for wiring into the simulator's origin nodes.
func BestBlueProvider(g *topology.Graph, m topology.ASN, opts PhiOpts) topology.ASN {
	counts := UphillCounts(g)
	rng := rand.New(rand.NewSource(opts.Seed))
	_, b := PhiIntelligent(g, counts, m, opts, rng)
	return b
}
