package topology

import (
	"fmt"
	"sort"
)

// Gao's AS relationship inference algorithm (L. Gao, "On Inferring
// Autonomous System Relationships in the Internet", IEEE/ACM ToN 2001),
// the algorithm the paper uses to annotate the RouteViews graph.
//
// The algorithm takes a set of observed AS paths and infers, for every
// adjacent AS pair appearing in them, whether the link is
// customer->provider, provider->customer, sibling, or peer:
//
//  1. The degree of each AS (number of distinct neighbors in the paths)
//     approximates its size.
//  2. Each path is assumed valley-free; its highest-degree AS is the "top
//     provider". Links left of the top are customer->provider, links right
//     of it provider->customer.
//  3. Links voted transit in both directions become siblings (we fold
//     siblings into peers, as the STAMP evaluation does not distinguish
//     them).
//  4. A final phase marks as peers the links adjacent to the top provider
//     whose endpoints have comparable degree (ratio below R) and which
//     never carried provider->customer transit for third parties.

// InferredRel is the output relationship for one AS pair.
type InferredRel struct {
	A, B ASN // A < B
	Rel  InferredKind
}

// InferredKind classifies an inferred link.
type InferredKind int8

const (
	// InferredAProviderOfB means A is the provider of B.
	InferredAProviderOfB InferredKind = iota
	// InferredBProviderOfA means B is the provider of A.
	InferredBProviderOfA
	// InferredPeer means the ASes are peers (or siblings).
	InferredPeer
)

// String returns a short name for the inferred kind.
func (k InferredKind) String() string {
	switch k {
	case InferredAProviderOfB:
		return "a-provider-of-b"
	case InferredBProviderOfA:
		return "b-provider-of-a"
	case InferredPeer:
		return "peer"
	}
	return fmt.Sprintf("InferredKind(%d)", int8(k))
}

// GaoParams tunes the inference.
type GaoParams struct {
	// PeerDegreeRatio R: adjacent-to-top links whose endpoint degree ratio
	// is below R are candidate peers. Gao's paper explores R in [1, 60];
	// on the real Internet's heavy-tailed degree distribution large R
	// works well, while the synthetic generator's flatter degrees favor a
	// small R. The default is tuned for generated topologies; pass 60 for
	// RouteViews-scale data.
	PeerDegreeRatio float64
}

// DefaultGaoParams returns the parameterization tuned for generated
// topologies.
func DefaultGaoParams() GaoParams { return GaoParams{PeerDegreeRatio: 3} }

// InferRelationships runs Gao's algorithm over the given AS paths. Paths
// must be loop-free sequences of ASNs; single-AS paths are ignored.
func InferRelationships(paths [][]ASN, p GaoParams) []InferredRel {
	if p.PeerDegreeRatio <= 0 {
		p = DefaultGaoParams()
	}
	// Phase 1: degrees from distinct neighbors.
	neighbors := make(map[ASN]map[ASN]bool)
	addNbr := func(a, b ASN) {
		if neighbors[a] == nil {
			neighbors[a] = make(map[ASN]bool)
		}
		neighbors[a][b] = true
	}
	for _, path := range paths {
		for i := 0; i+1 < len(path); i++ {
			addNbr(path[i], path[i+1])
			addNbr(path[i+1], path[i])
		}
	}
	degree := func(a ASN) int { return len(neighbors[a]) }

	type pair struct{ a, b ASN } // unordered; stored with a < b
	norm := func(a, b ASN) (pair, bool) {
		if a < b {
			return pair{a, b}, false // not swapped
		}
		return pair{b, a}, true // swapped
	}

	// transit[pq] counts votes that pq.a is provider of pq.b (providerOfAB)
	// and that pq.b is provider of pq.a.
	type votes struct {
		aOverB int // a provider of b
		bOverA int // b provider of a
	}
	transit := make(map[pair]*votes)
	vote := func(customer, provider ASN) {
		pq, swapped := norm(customer, provider)
		v := transit[pq]
		if v == nil {
			v = &votes{}
			transit[pq] = v
		}
		if swapped {
			// pq.a == provider
			v.aOverB++
		} else {
			v.bOverA++
		}
	}

	// notPeer marks links seen carrying transit for third parties in the
	// downhill direction beyond position top+1 or before top-1, which
	// disqualifies them from peering.
	notPeer := make(map[pair]bool)
	adjacentToTop := make(map[pair]bool)

	// Phase 2: vote using the top provider of each path.
	for _, path := range paths {
		if len(path) < 2 {
			continue
		}
		top := 0
		for i := 1; i < len(path); i++ {
			if degree(path[i]) > degree(path[top]) {
				top = i
			}
		}
		for i := 0; i+1 < len(path); i++ {
			if i+1 <= top {
				vote(path[i], path[i+1]) // uphill: path[i+1] provider
			} else {
				vote(path[i+1], path[i]) // downhill: path[i] provider
			}
			pq, _ := norm(path[i], path[i+1])
			if i == top || i+1 == top {
				adjacentToTop[pq] = true
			}
			// A link strictly inside the uphill or downhill segment carries
			// transit traffic for the ASes beyond it, so it cannot be a
			// peering link.
			if i+1 < top || i > top {
				notPeer[pq] = true
			}
		}
	}

	// Phase 3+4: classify.
	pairs := make([]pair, 0, len(transit))
	for pq := range transit {
		pairs = append(pairs, pq)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})

	out := make([]InferredRel, 0, len(pairs))
	for _, pq := range pairs {
		v := transit[pq]
		rel := InferredRel{A: pq.a, B: pq.b}
		switch {
		case v.aOverB > 0 && v.bOverA > 0:
			// Transit in both directions: sibling, folded into peer.
			rel.Rel = InferredPeer
		case v.aOverB > 0:
			rel.Rel = InferredAProviderOfB
		default:
			rel.Rel = InferredBProviderOfA
		}
		// Peering refinement: only links adjacent to a top provider, never
		// carrying third-party transit, with comparable degrees.
		if rel.Rel != InferredPeer && adjacentToTop[pq] && !notPeer[pq] {
			da, db := float64(degree(pq.a)), float64(degree(pq.b))
			if da > 0 && db > 0 {
				ratio := da / db
				if ratio < 1 {
					ratio = 1 / ratio
				}
				if ratio < p.PeerDegreeRatio {
					rel.Rel = InferredPeer
				}
			}
		}
		out = append(out, rel)
	}
	return out
}
