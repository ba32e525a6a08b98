package testkit

import (
	"math/rand"

	"stamp/internal/disjoint"
	"stamp/internal/topology"
)

// PhiAll computes Φ for every AS as destination, per the Anchors mapping,
// with each anchor sampled from its AnchorSeed: the serial reference the
// sharded Figure 1 path must match.
func PhiAll(g *topology.Graph, opts disjoint.PhiOpts) []float64 {
	counts := disjoint.UphillCounts(g)
	anchorOf, anchors := disjoint.Anchors(g)
	phiOf := make(map[topology.ASN]float64, len(anchors))
	for _, m := range anchors {
		phiOf[m] = disjoint.Phi(g, counts, m, opts, rand.New(rand.NewSource(disjoint.AnchorSeed(opts, m))))
	}
	return disjoint.AssemblePhi(anchorOf, phiOf)
}
