// Package atlas is the internet-scale experiment subsystem: real CAIDA
// AS-relationship snapshots ingested into an immutable compressed-
// sparse-row (CSR) graph, a flat routing-state engine whose per-(AS,
// destination) state lives in preallocated slabs so the hot convergence
// loop is allocation-free, and destination-sharded intra-trial
// parallelism over internal/runner — one trial's convergence fans out
// across workers with an ordered fold, so results stay byte-identical
// for any worker count.
//
// The classic engines (internal/sim, internal/emu) model one
// destination at message granularity with per-AS map-based state; atlas
// models many destinations at routing-round granularity with slab
// state. DESIGN.md ("the atlas subsystem") states the abstraction and
// the determinism argument; the fixpoint is pinned against
// topology.StaticRoutes and a capped-N live-emulation fixture.
package atlas

import (
	"fmt"
	"slices"

	"stamp/internal/topology"
)

// Graph is an immutable AS topology in compressed-sparse-row form: one
// flat neighbor array with per-AS slices, each slice grouped providers
// first, then peers, then customers, every group sorted ascending. A
// degree-descending AS order is precomputed once at build time
// (DegreeOrder) for analyses over the degree distribution; the
// scenario-level workload pickers deliberately draw through the
// representation-neutral scenario.Topo interface instead, so one
// picker serves both graph types. A Graph is cheap to share read-only
// across any number of goroutines.
type Graph struct {
	n       int32
	off     []int32 // len n+1: adjacency bounds; entries of a in [off[a], off[a+1])
	provEnd []int32 // providers of a occupy [off[a], provEnd[a])
	peerEnd []int32 // peers of a occupy [provEnd[a], peerEnd[a])
	nbr     []topology.ASN

	orig     []int64        // dense id -> original ASN (nil when built from a generated graph)
	byDegree []topology.ASN // AS ids sorted by degree descending, then id ascending
}

// Len returns the number of ASes.
func (g *Graph) Len() int { return int(g.n) }

// Edges returns the number of directed adjacency entries (2× links).
func (g *Graph) Edges() int { return len(g.nbr) }

// EdgeCount returns the number of distinct links.
func (g *Graph) EdgeCount() int { return len(g.nbr) / 2 }

// Providers returns the providers of a, sorted ascending. The slice
// aliases the CSR arrays and must not be modified.
func (g *Graph) Providers(a topology.ASN) []topology.ASN {
	return g.nbr[g.off[a]:g.provEnd[a]]
}

// Peers returns the peers of a, sorted ascending.
func (g *Graph) Peers(a topology.ASN) []topology.ASN {
	return g.nbr[g.provEnd[a]:g.peerEnd[a]]
}

// Customers returns the customers of a, sorted ascending.
func (g *Graph) Customers(a topology.ASN) []topology.ASN {
	return g.nbr[g.peerEnd[a]:g.off[a+1]]
}

// Neighbors appends all neighbors of a to dst and returns it.
func (g *Graph) Neighbors(dst []topology.ASN, a topology.ASN) []topology.ASN {
	return append(dst, g.nbr[g.off[a]:g.off[a+1]]...)
}

// Degree returns the total neighbor count of a.
func (g *Graph) Degree(a topology.ASN) int { return int(g.off[a+1] - g.off[a]) }

// IsMultihomed reports whether a has two or more providers.
func (g *Graph) IsMultihomed(a topology.ASN) bool { return g.provEnd[a]-g.off[a] >= 2 }

// IsTier1 reports whether a has no providers.
func (g *Graph) IsTier1(a topology.ASN) bool { return g.provEnd[a] == g.off[a] }

// Tier1Count returns the number of provider-free ASes.
func (g *Graph) Tier1Count() int {
	c := 0
	for a := int32(0); a < g.n; a++ {
		if g.IsTier1(topology.ASN(a)) {
			c++
		}
	}
	return c
}

// Rel returns the relationship of b from a's perspective (RelNone when
// not adjacent), by binary search over the sorted groups: the group an
// entry sits in is the relationship.
func (g *Graph) Rel(a, b topology.ASN) topology.Rel {
	switch e := g.entryIndex(a, b); {
	case e < 0:
		return topology.RelNone
	case e < g.provEnd[a]:
		return topology.RelProvider
	case e < g.peerEnd[a]:
		return topology.RelPeer
	}
	return topology.RelCustomer
}

// entryIndex returns the adjacency-entry index of neighbor b within a's
// row, or -1 when not adjacent.
func (g *Graph) entryIndex(a, b topology.ASN) int32 {
	for _, k := range [3]int8{kindProvider, kindPeer, kindCustomer} {
		lo, hi := g.group(int32(a), k)
		if e := g.search(lo, hi, b); e >= 0 {
			return e
		}
	}
	return -1
}

// group returns the bounds of the group in a's row that a route of the
// given kind is learned from: providers, peers or customers.
func (g *Graph) group(a int32, kind int8) (lo, hi int32) {
	switch kind {
	case kindProvider:
		return g.off[a], g.provEnd[a]
	case kindPeer:
		return g.provEnd[a], g.peerEnd[a]
	}
	return g.peerEnd[a], g.off[a+1]
}

// search returns the index of neighbor b among the ascending entries
// [lo, hi), or -1.
func (g *Graph) search(lo, hi int32, b topology.ASN) int32 {
	end := hi
	for lo < hi {
		mid := (lo + hi) / 2
		if g.nbr[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && g.nbr[lo] == b {
		return lo
	}
	return -1
}

// DegreeOrder returns the ASes sorted by total degree descending (ties
// by ascending id) — the deterministic "big transit first" order for
// degree-distribution analyses. The slice is owned by the graph; do
// not modify.
func (g *Graph) DegreeOrder() []topology.ASN { return g.byDegree }

// OriginalASN maps a dense internal id back to the snapshot's ASN.
// Graphs built from generated topologies return the id itself.
func (g *Graph) OriginalASN(a topology.ASN) int64 {
	if g.orig == nil {
		return int64(a)
	}
	return g.orig[a]
}

// DenseASN maps an original (snapshot) ASN back to its dense internal
// id — the inverse of OriginalASN. Linear scan; query paths only.
func (g *Graph) DenseASN(orig int64) (topology.ASN, bool) {
	if g.orig == nil {
		if orig >= 0 && orig < int64(g.n) {
			return topology.ASN(orig), true
		}
		return -1, false
	}
	for i, o := range g.orig {
		if o == orig {
			return topology.ASN(i), true
		}
	}
	return -1, false
}

// builder accumulates directed relationship entries and freezes them
// into CSR form.
type builder struct {
	n    int32
	from []topology.ASN
	to   []topology.ASN
	rel  []topology.Rel
	orig []int64
}

// addLink records one undirected link with b's role from a's
// perspective (RelProvider: b is a's provider; RelPeer: peering).
func (b *builder) addLink(a, p topology.ASN, rel topology.Rel) {
	b.from = append(b.from, a, p)
	b.to = append(b.to, p, a)
	b.rel = append(b.rel, rel, rel.Invert())
}

// freeze lays the entries out in CSR form: per-AS rows, providers
// first, then peers, then customers, each group ascending by neighbor.
// Entries are placed in their row by a counting sort on the row AS and
// each row is then sorted on a packed (group rank, neighbor) key.
func (b *builder) freeze() (*Graph, error) {
	n := b.n
	g := &Graph{
		n:       n,
		off:     make([]int32, n+1),
		provEnd: make([]int32, n),
		peerEnd: make([]int32, n),
		nbr:     make([]topology.ASN, len(b.from)),
		orig:    b.orig,
	}
	for _, f := range b.from {
		g.off[f+1]++
	}
	for a := int32(0); a < n; a++ {
		g.off[a+1] += g.off[a]
	}
	// rankRel orders a row's groups providers < peers < customers.
	rankRel := [3]topology.Rel{topology.RelProvider, topology.RelPeer, topology.RelCustomer}
	var relRank [topology.RelProvider + 1]uint64
	for rank, r := range rankRel {
		relRank[r] = uint64(rank)
	}
	keys := make([]uint64, len(b.from))
	fill := append([]int32(nil), g.off[:n]...) // next free slot of each row
	for i, f := range b.from {
		keys[fill[f]] = relRank[b.rel[i]]<<32 | uint64(uint32(b.to[i]))
		fill[f]++
	}
	for a := int32(0); a < n; a++ {
		slices.Sort(keys[g.off[a]:g.off[a+1]])
	}
	for pos, k := range keys {
		g.nbr[pos] = topology.ASN(uint32(k))
	}
	// Group boundaries + duplicate detection. A neighbor appearing twice
	// in a row — within a group or across groups — means the snapshot
	// carries duplicate or conflicting relationship claims; fail loudly
	// rather than silently prefer one.
	for a := int32(0); a < n; a++ {
		lo, hi := g.off[a], g.off[a+1]
		g.provEnd[a], g.peerEnd[a] = lo, lo
		for e := lo; e < hi; e++ {
			if g.nbr[e] == topology.ASN(a) {
				return nil, fmt.Errorf("atlas: self link at AS %d", a)
			}
			switch rankRel[keys[e]>>32] {
			case topology.RelProvider:
				g.provEnd[a] = e + 1
				g.peerEnd[a] = e + 1
			case topology.RelPeer:
				g.peerEnd[a] = e + 1
			}
		}
		if dup, ok := rowDuplicate(
			g.nbr[lo:g.provEnd[a]],
			g.nbr[g.provEnd[a]:g.peerEnd[a]],
			g.nbr[g.peerEnd[a]:hi],
		); ok {
			return nil, fmt.Errorf("atlas: duplicate or conflicting link between %d and %d", a, dup)
		}
	}
	// Degree descending, then id ascending: one ascending sort on
	// (^degree, id).
	byDeg := make([]uint64, n)
	for a := int32(0); a < n; a++ {
		byDeg[a] = uint64(^uint32(g.Degree(topology.ASN(a))))<<32 | uint64(a)
	}
	slices.Sort(byDeg)
	g.byDegree = make([]topology.ASN, n)
	for i, k := range byDeg {
		g.byDegree[i] = topology.ASN(uint32(k))
	}
	return g, nil
}

// rowDuplicate reports a neighbor id appearing twice across the three
// ascending-sorted relationship groups of one row.
func rowDuplicate(groups ...[]topology.ASN) (topology.ASN, bool) {
	prev := topology.ASN(-1)
	first := true
	// 3-way merge over sorted groups.
	pos := make([]int, len(groups))
	for {
		best := -1
		for i, p := range pos {
			if p < len(groups[i]) && (best < 0 || groups[i][p] < groups[best][pos[best]]) {
				best = i
			}
		}
		if best < 0 {
			return 0, false
		}
		v := groups[best][pos[best]]
		pos[best]++
		if !first && v == prev {
			return v, true
		}
		prev, first = v, false
	}
}

// FromTopology converts an adjacency-list graph into CSR form, so
// generated topologies run on the atlas engine alongside ingested
// snapshots.
func FromTopology(t *topology.Graph) (*Graph, error) {
	b := &builder{n: int32(t.Len())}
	for a := 0; a < t.Len(); a++ {
		v := topology.ASN(a)
		for _, p := range t.Providers(v) {
			b.addLink(v, p, topology.RelProvider)
		}
		for _, p := range t.Peers(v) {
			if v < p {
				b.addLink(v, p, topology.RelPeer)
			}
		}
	}
	return b.freeze()
}
