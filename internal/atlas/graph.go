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
// testkit.StaticRoutes and a capped-N live-emulation fixture.
package atlas

import (
	"cmp"
	"fmt"
	"slices"

	"stamp/internal/topology"
)

// Graph is an immutable AS topology in compressed-sparse-row form: one
// flat neighbor array with per-AS slices, each slice grouped providers
// first, then peers, then customers, every group sorted ascending. The
// scenario-level workload pickers draw through the representation-
// neutral scenario.Topo interface, so one picker serves both graph
// types. A Graph is cheap to share read-only across any number of
// goroutines.
type Graph struct {
	n       int32
	off     []int32 // len n+1: adjacency bounds; entries of a in [off[a], off[a+1])
	provEnd []int32 // providers of a occupy [off[a], provEnd[a])
	peerEnd []int32 // peers of a occupy [provEnd[a], peerEnd[a])
	nbr     []topology.ASN
	rev     []int32 // rev[e]: the entry of the opposite direction, in nbr[e]'s row
	leaf    bitset  // the ASes with no customers: peerEnd[a] == off[a+1]

	// The customer entries of a that lead to a non-leaf, ascending:
	// transit[transitOff[a]:transitOff[a+1]]. A from-scratch window that
	// settles its leaves after the loop fans out over these alone.
	transitOff []int32 // len n+1
	transit    []int32

	orig []int64 // dense id -> original ASN (nil when built from a generated graph)
	// The dense ids in ascending order of their original ASN, for
	// DenseASN's binary search (nil when orig is).
	byOrig []int32
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

// OriginalASN maps a dense internal id back to the snapshot's ASN.
// Graphs built from generated topologies return the id itself.
func (g *Graph) OriginalASN(a topology.ASN) int64 {
	if g.orig == nil {
		return int64(a)
	}
	return g.orig[a]
}

// DenseASN maps an original (snapshot) ASN back to its dense internal
// id — the inverse of OriginalASN: a range check on a generated graph,
// a binary search in O(log N) on an ingested one.
func (g *Graph) DenseASN(orig int64) (topology.ASN, bool) {
	if g.orig == nil {
		if orig >= 0 && orig < int64(g.n) {
			return topology.ASN(orig), true
		}
		return -1, false
	}
	i, ok := slices.BinarySearchFunc(g.byOrig, orig, func(a int32, x int64) int { return cmp.Compare(g.orig[a], x) })
	if !ok {
		return -1, false
	}
	return topology.ASN(g.byOrig[i]), true
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
	if err := checkASCount(int64(n)); err != nil {
		return nil, err
	}
	g := &Graph{
		n:       n,
		off:     make([]int32, n+1),
		provEnd: make([]int32, n),
		peerEnd: make([]int32, n),
		nbr:     make([]topology.ASN, len(b.from)),
		rev:     make([]int32, len(b.from)),
		leaf:    newBitset(int(n)),
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
		if dup, ok := rowDuplicate([3][]topology.ASN{
			g.nbr[lo:g.provEnd[a]],
			g.nbr[g.provEnd[a]:g.peerEnd[a]],
			g.nbr[g.peerEnd[a]:hi],
		}); ok {
			return nil, fmt.Errorf("atlas: duplicate or conflicting link between %d and %d", a, dup)
		}
		g.leaf.put(a, g.peerEnd[a] == hi)
	}
	g.linkReverse(fill)
	g.indexTransit()
	if g.orig != nil {
		g.byOrig = make([]int32, n)
		for a := range g.byOrig {
			g.byOrig[a] = int32(a)
		}
		slices.SortFunc(g.byOrig, func(a, b int32) int { return cmp.Compare(g.orig[a], g.orig[b]) })
	}
	return g, nil
}

// indexTransit lists each row's customer entries that lead to a
// non-leaf, in two passes so the list is allocated at its size.
func (g *Graph) indexTransit() {
	g.transitOff = make([]int32, g.n+1)
	for a := int32(0); a < g.n; a++ {
		k := int32(0)
		for _, w := range g.Customers(topology.ASN(a)) {
			if !g.leaf.has(int32(w)) {
				k++
			}
		}
		g.transitOff[a+1] = g.transitOff[a] + k
	}
	g.transit = make([]int32, 0, g.transitOff[g.n])
	for a := int32(0); a < g.n; a++ {
		for e := g.peerEnd[a]; e < g.off[a+1]; e++ {
			if !g.leaf.has(int32(g.nbr[e])) {
				g.transit = append(g.transit, e)
			}
		}
	}
}

// checkASCount refuses graphs the engine cannot route: a path is
// shorter than the AS count, and a route's preference word packs the
// path length under the kind bits (see route).
func checkASCount(n int64) error {
	if n >= 1<<kindShift {
		return fmt.Errorf("atlas: %d ASes, the engine routes fewer than %d", n, 1<<kindShift)
	}
	return nil
}

// linkReverse fills rev. A row's entry for b names b's row entry for it,
// which sits in the inverse group: a provider's row lists a as a
// customer, a peer's as a peer, a customer's as a provider. One pass per
// group visits the rows in ascending order, so the rows that list b in
// that group come in ascending order, which is the order of b's inverse
// group: its entries are handed out by a cursor per AS (cur, len n) that
// starts at the group's first slot.
func (g *Graph) linkReverse(cur []int32) {
	n := g.n
	// group k of a row is [bound[k][a], bound[k+1][a]).
	bound := [4][]int32{g.off[:n], g.provEnd, g.peerEnd, g.off[1:]}
	for k := 0; k < 3; k++ {
		copy(cur, bound[2-k])
		lo, hi := bound[k], bound[k+1]
		for a := int32(0); a < n; a++ {
			for e := lo[a]; e < hi[a]; e++ {
				b := g.nbr[e]
				g.rev[e] = cur[b]
				cur[b]++
			}
		}
	}
}

// rowDuplicate reports a neighbor id appearing twice across the three
// ascending-sorted relationship groups of one row.
func rowDuplicate(groups [3][]topology.ASN) (topology.ASN, bool) {
	prev := topology.ASN(-1)
	first := true
	// 3-way merge over sorted groups.
	var pos [3]int
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
	m := 2 * t.EdgeCount()
	b := &builder{
		n:    int32(t.Len()),
		from: make([]topology.ASN, 0, m),
		to:   make([]topology.ASN, 0, m),
		rel:  make([]topology.Rel, 0, m),
	}
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
