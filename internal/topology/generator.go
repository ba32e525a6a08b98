package topology

import (
	"fmt"
	"math/rand"
)

// GenParams controls the synthetic Internet-like topology generator.
//
// The generator substitutes for the RouteViews-derived AS graph used in the
// paper's evaluation. It reproduces the structural properties the paper's
// results depend on: a clique of provider-free tier-1 ASes, an acyclic
// customer-provider hierarchy, heavy-tailed provider degrees via
// preferential attachment, widespread multihoming, and peering links
// between transit ASes of similar size.
type GenParams struct {
	// N is the total number of ASes.
	N int
	// Tier1 is the number of provider-free top ASes, fully peer-meshed.
	Tier1 int
	// TransitFrac is the fraction of non-tier-1 ASes that are transit
	// (mid-tier) providers; the remainder are stub ASes.
	TransitFrac float64
	// MultihomeProb is the probability that an AS has more than one
	// provider.
	MultihomeProb float64
	// MaxProviders caps the provider count of a single AS.
	MaxProviders int
	// ExtraProviderProb is the probability, applied repeatedly, of adding
	// one more provider beyond the second to a multi-homed AS (geometric
	// tail).
	ExtraProviderProb float64
	// PeerDegreeRatio is the maximum degree ratio between two transit ASes
	// for a peering link to be considered.
	PeerDegreeRatio float64
	// PeerTrials is how many peering attempts each transit AS makes.
	PeerTrials int
	// Seed seeds the deterministic generator RNG.
	Seed int64
}

// DefaultGenParams returns parameters that yield an Internet-like topology
// of n ASes with multihoming and peering densities tuned so that the
// disjointness probability Φ lands in the paper's reported regime
// (mean ≈ 0.9).
func DefaultGenParams(n int, seed int64) GenParams {
	t := n / 400
	if t < 5 {
		t = 5
	}
	if t > 16 {
		t = 16
	}
	return GenParams{
		N:                 n,
		Tier1:             t,
		TransitFrac:       0.16,
		MultihomeProb:     0.78,
		MaxProviders:      6,
		ExtraProviderProb: 0.35,
		PeerDegreeRatio:   4.0,
		PeerTrials:        2,
		Seed:              seed,
	}
}

// Generate builds a synthetic AS topology. ASes 0..Tier1-1 are the tier-1
// clique; transit ASes follow; stub ASes come last. Provider links always
// point from a later-created AS to an earlier-created one, so the
// customer-provider hierarchy is acyclic by construction.
func Generate(p GenParams) (*Graph, error) {
	if p.N < 3 {
		return nil, fmt.Errorf("topology: need at least 3 ASes, got %d", p.N)
	}
	if p.Tier1 < 2 || p.Tier1 >= p.N {
		return nil, fmt.Errorf("topology: tier-1 count %d out of range for %d ASes", p.Tier1, p.N)
	}
	if p.MaxProviders < 1 {
		return nil, fmt.Errorf("topology: MaxProviders must be >= 1")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := NewGraph(p.N)

	// Tier-1 clique.
	for a := 0; a < p.Tier1; a++ {
		for b := a + 1; b < p.Tier1; b++ {
			if err := g.AddPeerLink(ASN(a), ASN(b)); err != nil {
				return nil, err
			}
		}
	}

	nTransit := int(float64(p.N-p.Tier1) * p.TransitFrac)
	firstStub := p.Tier1 + nTransit

	// Every AS that may become a provider (tier-1 and transit) holds its
	// sampling weight degree+1 in a Fenwick tree, so a degree-biased
	// provider pick is O(log N) instead of a scan of every candidate.
	weights := newFenwick(firstStub)
	for a := 0; a < p.Tier1; a++ {
		weights.add(a, g.Degree(ASN(a))+1)
	}

	// attach wires a new AS to providers drawn, without replacement, from
	// the ASes currently in the tree by degree-biased (preferential)
	// sampling: a drawn provider's weight is zeroed for the rest of the
	// draw and restored, one link heavier, once the AS is wired. The
	// provider list keeps draw order, which is part of the reproducibility
	// contract (the simulators iterate it). candidates is how many ASes
	// the tree holds.
	var order []ASN
	attach := func(a ASN, candidates int) {
		k := 1
		if rng.Float64() < p.MultihomeProb {
			k = 2
			for k < p.MaxProviders && rng.Float64() < p.ExtraProviderProb {
				k++
			}
		}
		k = min(k, candidates)
		order = order[:0]
		for len(order) < k {
			prov := weights.find(rng.Intn(weights.total()))
			weights.add(prov, -(g.Degree(ASN(prov)) + 1))
			order = append(order, ASN(prov))
		}
		for _, prov := range order {
			// Error impossible: prov < a and not duplicate.
			if err := g.AddProviderLink(a, prov); err != nil {
				panic(err)
			}
			weights.add(int(prov), g.Degree(prov)+1)
		}
	}

	// Transit ASes attach to tier-1s and earlier transit ASes, then become
	// candidates themselves.
	for a := p.Tier1; a < firstStub; a++ {
		attach(ASN(a), a)
		weights.add(a, g.Degree(ASN(a))+1)
	}
	// Stub ASes attach to transit ASes and tier-1s only.
	for a := firstStub; a < p.N; a++ {
		attach(ASN(a), firstStub)
	}

	// Peering among transit ASes of comparable degree.
	addTransitPeering(rng, g, p, firstStub)

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topology: generator produced invalid graph: %w", err)
	}
	return g, nil
}

// fenwick is a binary indexed tree over non-negative integer weights:
// point update, running total, and the weighted-sampling inverse (which
// index does the x-th unit of weight fall in) all in O(log n).
type fenwick struct {
	tree []int // 1-based partial sums
	sum  int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

// add adds delta to index i's weight.
func (f *fenwick) add(i, delta int) {
	f.sum += delta
	for i++; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// total returns the sum of all weights.
func (f *fenwick) total() int { return f.sum }

// find returns the smallest index whose prefix sum (inclusive) exceeds
// x, for 0 <= x < total(): the index a linear scan subtracting weights
// from x would stop at. Zero-weight indices are never returned.
func (f *fenwick) find(x int) int {
	pos := 0
	step := 1
	for step<<1 < len(f.tree) {
		step <<= 1
	}
	for ; step > 0; step >>= 1 {
		if next := pos + step; next < len(f.tree) && f.tree[next] <= x {
			pos = next
			x -= f.tree[next]
		}
	}
	// pos is, 1-based, the last index whose prefix sum is <= x, so the
	// answer is 1-based pos+1: 0-based pos.
	return pos
}

// addTransitPeering links transit ASes of similar degree with peer edges.
func addTransitPeering(rng *rand.Rand, g *Graph, p GenParams, firstStub int) {
	for a := p.Tier1; a < firstStub; a++ {
		for t := 0; t < p.PeerTrials; t++ {
			b := ASN(p.Tier1 + rng.Intn(firstStub-p.Tier1))
			if b == ASN(a) || g.Rel(ASN(a), b) != RelNone {
				continue
			}
			da, db := float64(g.Degree(ASN(a))+1), float64(g.Degree(b)+1)
			ratio := da / db
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if ratio > p.PeerDegreeRatio {
				continue
			}
			// Avoid peerings that would let an AS reach its own customer
			// cone "sideways" in a way real peering economics forbid: only
			// peer ASes with no provider/customer path conflict. A simple
			// and sufficient guard is already enforced by Rel check above;
			// customer-provider acyclicity is untouched by peer links.
			if err := g.AddPeerLink(ASN(a), b); err != nil {
				panic(err)
			}
		}
	}
}

// GenerateDefault is shorthand for Generate(DefaultGenParams(n, seed)).
func GenerateDefault(n int, seed int64) (*Graph, error) {
	return Generate(DefaultGenParams(n, seed))
}
