package topology_test

// These tests use the shared oracles in testkit, which imports topology,
// so they sit in the external test package; the dot import keeps the
// package's own names unqualified.

import (
	"math/rand"
	"testing"

	"stamp/internal/testkit"
	. "stamp/internal/topology"
)

// genPaths synthesizes observed AS paths from ground truth g by computing
// stable routes toward a sample of destinations, mimicking what a route
// collector sees.
func genPaths(g *Graph, dests int, seed int64) [][]ASN {
	rng := rand.New(rand.NewSource(seed))
	var paths [][]ASN
	for i := 0; i < dests; i++ {
		dest := ASN(rng.Intn(g.Len()))
		routes := testkit.StaticRoutes(g, dest)
		for v := 0; v < g.Len(); v++ {
			if len(routes[v]) == 0 {
				continue
			}
			full := append([]ASN{ASN(v)}, routes[v]...)
			paths = append(paths, full)
		}
	}
	return paths
}

func TestGaoInferenceChain(t *testing.T) {
	// Simple chain: 2 -> 1 -> 0 with degrees making 0 the top provider.
	// Give 0 extra neighbors so its degree dominates.
	g := NewGraph(5)
	mustP := func(c, p ASN) {
		t.Helper()
		if err := g.AddProviderLink(c, p); err != nil {
			t.Fatal(err)
		}
	}
	mustP(1, 0)
	mustP(2, 1)
	mustP(3, 0)
	mustP(4, 0)
	paths := [][]ASN{
		{2, 1, 0},
		{2, 1, 0, 3},
		{4, 0, 3},
	}
	// The chain's degrees are nearly uniform, so a tight peering ratio is
	// needed to avoid misreading top-adjacent provider links as peering.
	inferred := InferRelationships(paths, GaoParams{PeerDegreeRatio: 1.2})
	acc := InferenceAccuracy(g, inferred)
	if acc < 0.99 {
		t.Errorf("accuracy = %.2f on trivial chain, want 1.0 (inferred: %v)", acc, inferred)
	}
}

func TestGaoInferenceSynthetic(t *testing.T) {
	g, err := GenerateDefault(400, 31)
	if err != nil {
		t.Fatal(err)
	}
	paths := genPaths(g, 25, 1)
	inferred := InferRelationships(paths, DefaultGaoParams())
	if len(inferred) == 0 {
		t.Fatal("no relationships inferred")
	}
	acc := InferenceAccuracy(g, inferred)
	// Gao's paper reports >90% accuracy on provider-customer links.
	if acc < 0.88 {
		t.Errorf("accuracy = %.2f, want >= 0.88", acc)
	}
	t.Logf("inferred %d links with accuracy %.3f", len(inferred), acc)
}

func TestGaoInferencePeersDetected(t *testing.T) {
	g, err := GenerateDefault(400, 33)
	if err != nil {
		t.Fatal(err)
	}
	paths := genPaths(g, 25, 2)
	inferred := InferRelationships(paths, DefaultGaoParams())
	peers := 0
	for _, ir := range inferred {
		if ir.Rel == InferredPeer {
			peers++
		}
	}
	if peers == 0 {
		t.Error("no peering links inferred despite tier-1 clique traffic")
	}
}

func TestGaoInferenceEmpty(t *testing.T) {
	if out := InferRelationships(nil, DefaultGaoParams()); len(out) != 0 {
		t.Errorf("inferred %d relationships from no paths", len(out))
	}
	if acc := InferenceAccuracy(NewGraph(1), nil); acc != 0 {
		t.Errorf("accuracy of empty inference = %v, want 0", acc)
	}
}

func TestGaoInferenceDeterministic(t *testing.T) {
	g, err := GenerateDefault(200, 35)
	if err != nil {
		t.Fatal(err)
	}
	paths := genPaths(g, 10, 3)
	a := InferRelationships(paths, DefaultGaoParams())
	b := InferRelationships(paths, DefaultGaoParams())
	if len(a) != len(b) {
		t.Fatalf("non-deterministic output size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// InferenceAccuracy compares inferred relationships against the ground
// truth graph and returns the fraction of links classified correctly,
// counting only links present in both.
func InferenceAccuracy(g *Graph, inferred []InferredRel) float64 {
	if len(inferred) == 0 {
		return 0
	}
	correct, total := 0, 0
	for _, ir := range inferred {
		truth := g.Rel(ir.A, ir.B)
		if truth == RelNone {
			continue
		}
		total++
		switch ir.Rel {
		case InferredAProviderOfB:
			// truth is B's relation from A's perspective: if A is B's
			// provider, then B is A's customer.
			if truth == RelCustomer {
				correct++
			}
		case InferredBProviderOfA:
			if truth == RelProvider {
				correct++
			}
		case InferredPeer:
			if truth == RelPeer {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
