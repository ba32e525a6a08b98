// Package disjoint analyzes the AS topology for STAMP's path
// disjointness properties (§6.1 of the paper): the probability Φ that all
// ASes obtain both red and blue paths to a destination, the improvement
// from intelligent locked-blue-provider selection, and the
// partial-deployment variant.
//
// All quantities are defined over the "uphill DAG" — the digraph of
// customer-to-provider edges — because STAMP only constrains the downhill
// portion of paths, whose reverse is exactly an uphill path from the
// destination to a tier-1 AS.
package disjoint

import (
	"math/rand"

	"stamp/internal/runner"
	"stamp/internal/topology"
)

// UphillCounts returns, for every AS, the number of distinct uphill paths
// (following provider edges) from it to any tier-1 AS. Counts are float64
// because real topologies have astronomically many paths; only ratios are
// ever used. A tier-1 AS counts one (empty) path.
func UphillCounts(g *topology.Graph) []float64 {
	n := g.Len()
	counts := make([]float64, n)
	done := make([]bool, n)
	var visit func(v topology.ASN) float64
	visit = func(v topology.ASN) float64 {
		if done[v] {
			return counts[v]
		}
		done[v] = true // safe: provider DAG is acyclic (validated)
		if g.IsTier1(v) {
			counts[v] = 1
			return 1
		}
		total := 0.0
		for _, p := range g.Providers(v) {
			total += visit(p)
		}
		counts[v] = total
		return total
	}
	for v := 0; v < n; v++ {
		visit(topology.ASN(v))
	}
	return counts
}

// SampleUphillPath draws one uphill path from `from` to a tier-1,
// uniformly over all such paths, using precomputed counts for weighting.
// The returned path includes both endpoints.
func SampleUphillPath(g *topology.Graph, counts []float64, rng *rand.Rand, from topology.ASN) []topology.ASN {
	path := []topology.ASN{from}
	v := from
	for !g.IsTier1(v) {
		provs := g.Providers(v)
		total := 0.0
		for _, p := range provs {
			total += counts[p]
		}
		x := rng.Float64() * total
		next := provs[len(provs)-1]
		for _, p := range provs {
			x -= counts[p]
			if x < 0 {
				next = p
				break
			}
		}
		path = append(path, next)
		v = next
	}
	return path
}

// GoodLockedPath reports whether the locked blue path `path` (an uphill
// path from a multi-homed AS m to a tier-1) is "good": a node-disjoint
// uphill path from m to another tier-1 exists, so STAMP can find a red
// path (§6.1). Disjointness excludes m itself.
func GoodLockedPath(g *topology.Graph, path []topology.ASN) bool {
	if len(path) == 0 {
		return false
	}
	m := path[0]
	blocked := make(map[topology.ASN]bool, len(path))
	for _, v := range path[1:] {
		blocked[v] = true
	}
	// BFS over provider edges from m avoiding blocked nodes.
	visited := map[topology.ASN]bool{m: true}
	queue := []topology.ASN{m}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if g.IsTier1(v) && v != m {
			return true
		}
		for _, p := range g.Providers(v) {
			if blocked[p] || visited[p] {
				continue
			}
			visited[p] = true
			queue = append(queue, p)
		}
	}
	return false
}

// PhiOpts controls Φ estimation.
type PhiOpts struct {
	// ExactLimit: destinations with at most this many uphill paths get Φ
	// computed exactly by enumeration; others are sampled.
	ExactLimit int
	// Samples is the Monte Carlo sample count per destination.
	Samples int
	// Seed seeds the sampler.
	Seed int64
}

// DefaultPhiOpts returns a laptop-friendly configuration.
func DefaultPhiOpts() PhiOpts { return PhiOpts{ExactLimit: 128, Samples: 48, Seed: 1} }

// Phi estimates Φm for a multi-homed AS m: the probability, over a
// uniformly random choice of locked blue path, that a disjoint red path
// to another tier-1 exists. For single-homed ASes use PhiAll, which maps
// them to their first multi-homed ancestor.
func Phi(g *topology.Graph, counts []float64, m topology.ASN, opts PhiOpts, rng *rand.Rand) float64 {
	if g.IsTier1(m) {
		return 1
	}
	if int(counts[m]) > 0 && counts[m] <= float64(opts.ExactLimit) {
		good, total := 0, 0
		enumerateUphill(g, m, func(path []topology.ASN) {
			total++
			if GoodLockedPath(g, path) {
				good++
			}
		})
		if total == 0 {
			return 0
		}
		return float64(good) / float64(total)
	}
	good := 0
	for i := 0; i < opts.Samples; i++ {
		if GoodLockedPath(g, SampleUphillPath(g, counts, rng, m)) {
			good++
		}
	}
	return float64(good) / float64(opts.Samples)
}

// enumerateUphill calls f with every uphill path from v to a tier-1. The
// path slice is reused; f must not retain it.
func enumerateUphill(g *topology.Graph, v topology.ASN, f func([]topology.ASN)) {
	path := []topology.ASN{v}
	var rec func(cur topology.ASN)
	rec = func(cur topology.ASN) {
		if g.IsTier1(cur) {
			f(path)
			return
		}
		for _, p := range g.Providers(cur) {
			path = append(path, p)
			rec(p)
			path = path[:len(path)-1]
		}
	}
	rec(v)
}

// Anchors maps every AS to the multi-homed AS whose Φ it inherits: itself
// when multi-homed, its first multi-homed ancestor when single-homed
// (footnote 4), and -1 for tier-1 and ancestor-less ASes, which score
// Φ = 1 because all events above them are uphill events, harmless per
// Lemma 3.2. The distinct anchors are returned in ascending order — the
// enumerable, independently computable units behind PhiAll and the
// sharded Figure 1 harness.
func Anchors(g *topology.Graph) (anchorOf []topology.ASN, anchors []topology.ASN) {
	n := g.Len()
	anchorOf = make([]topology.ASN, n)
	isAnchor := make([]bool, n)
	for a := 0; a < n; a++ {
		v := topology.ASN(a)
		m := v
		if !g.IsMultihomed(v) {
			var ok bool
			if m, ok = g.FirstMultihomedAncestor(v); !ok {
				anchorOf[a] = -1
				continue
			}
		}
		anchorOf[a] = m
		isAnchor[m] = true
	}
	for a := 0; a < n; a++ {
		if isAnchor[a] {
			anchors = append(anchors, topology.ASN(a))
		}
	}
	return anchorOf, anchors
}

// phiStream labels the per-anchor Φ sampling stream in seed derivation.
const phiStream int64 = 101

// AnchorSeed returns the RNG seed for estimating anchor m's Φ, derived
// from PhiOpts.Seed. Every Φ entry point — PhiAll here, the sharded
// Figure 1 harness in internal/lab — must draw anchor m's
// samples from this seed, so the same PhiOpts yield the same Φ values
// regardless of entry point, evaluation order, or worker count.
func AnchorSeed(opts PhiOpts, m topology.ASN) int64 {
	return runner.DeriveSeed(opts.Seed, phiStream, int64(m))
}

// AssemblePhi expands per-anchor Φ values into the per-AS vector using an
// Anchors mapping (ASes without an anchor get 1).
func AssemblePhi(anchorOf []topology.ASN, phiOf map[topology.ASN]float64) []float64 {
	phi := make([]float64, len(anchorOf))
	for a, m := range anchorOf {
		if m < 0 {
			phi[a] = 1
			continue
		}
		phi[a] = phiOf[m]
	}
	return phi
}

// PhiAll computes Φ for every AS as destination, per the Anchors mapping,
// with each anchor sampled from its AnchorSeed.
func PhiAll(g *topology.Graph, opts PhiOpts) []float64 {
	counts := UphillCounts(g)
	anchorOf, anchors := Anchors(g)
	phiOf := make(map[topology.ASN]float64, len(anchors))
	for _, m := range anchors {
		phiOf[m] = Phi(g, counts, m, opts, rand.New(rand.NewSource(AnchorSeed(opts, m))))
	}
	return AssemblePhi(anchorOf, phiOf)
}

// PhiIntelligent estimates Φ for destination m when the origin selects its
// locked blue provider intelligently: for each candidate first hop b it
// estimates the conditional goodness P(good | first hop = b) and returns
// the maximum (the origin picks the best b; ASes further up still choose
// randomly).
func PhiIntelligent(g *topology.Graph, counts []float64, m topology.ASN, opts PhiOpts, rng *rand.Rand) (float64, topology.ASN) {
	if g.IsTier1(m) {
		return 1, -1
	}
	provs := g.Providers(m)
	bestVal, bestProv := -1.0, topology.ASN(-1)
	for _, b := range provs {
		var val float64
		if counts[b] > 0 && counts[b] <= float64(opts.ExactLimit) {
			good, total := 0, 0
			enumerateUphill(g, b, func(rest []topology.ASN) {
				total++
				full := append([]topology.ASN{m}, rest...)
				if GoodLockedPath(g, full) {
					good++
				}
			})
			if total > 0 {
				val = float64(good) / float64(total)
			}
		} else {
			good := 0
			for i := 0; i < opts.Samples; i++ {
				rest := SampleUphillPath(g, counts, rng, b)
				full := append([]topology.ASN{m}, rest...)
				if GoodLockedPath(g, full) {
					good++
				}
			}
			val = float64(good) / float64(opts.Samples)
		}
		if val > bestVal {
			bestVal, bestProv = val, b
		}
	}
	if bestVal < 0 {
		return 0, -1
	}
	return bestVal, bestProv
}

// BestBlueProvider returns the intelligent locked-blue-provider choice for
// m, for wiring into the simulator's origin nodes.
func BestBlueProvider(g *topology.Graph, m topology.ASN, opts PhiOpts) topology.ASN {
	counts := UphillCounts(g)
	rng := rand.New(rand.NewSource(opts.Seed))
	_, b := PhiIntelligent(g, counts, m, opts, rng)
	return b
}
