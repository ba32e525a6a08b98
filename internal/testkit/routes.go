// Package testkit holds the test oracles that more than one package's
// tests share: the Gao-Rexford fixpoint, valley-free and customer-cone
// checks, link masking and the serial Φ computation. Only _test.go files
// may import it, and the production build never links it (repo_test.go
// enforces both).
package testkit

import (
	"container/heap"

	"stamp/internal/topology"
)

// StaticRoutes computes the unique stable (Gao-Rexford) routing toward
// dest under prefer-customer / valley-free policies with deterministic
// tie-breaks matching the simulator's decision process: customer routes
// over peer routes over provider routes, then shortest AS path, then
// lowest next-hop ASN. The result holds, for every AS, its AS path to
// dest (nil if unreachable; the destination itself gets an empty,
// non-nil path).
//
// The event-driven simulator and the atlas engine must converge to
// exactly this solution for plain BGP; tests assert the equivalence.
func StaticRoutes(g *topology.Graph, dest topology.ASN) [][]topology.ASN {
	n := g.Len()
	const inf = int32(1 << 30)

	// Phase 1 — customer routes: announcements climb provider edges, so
	// an AS has a customer route iff an uphill path dest→AS exists
	// (reversed). BFS by levels with lowest-next-hop tie-break.
	custDist := make([]int32, n)
	custNext := make([]topology.ASN, n)
	for i := range custDist {
		custDist[i] = inf
		custNext[i] = -1
	}
	custDist[dest] = 0
	queue := []topology.ASN{dest}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, p := range g.Providers(v) {
			switch {
			case custDist[p] == inf:
				custDist[p] = custDist[v] + 1
				custNext[p] = v
				queue = append(queue, p)
			case custDist[p] == custDist[v]+1 && v < custNext[p]:
				custNext[p] = v
			}
		}
	}

	// Phase 2 — peer routes: one peer step onto a customer route.
	peerDist := make([]int32, n)
	peerNext := make([]topology.ASN, n)
	for i := range peerDist {
		peerDist[i] = inf
		peerNext[i] = -1
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Peers(topology.ASN(v)) {
			if custDist[u] == inf {
				continue
			}
			d := custDist[u] + 1
			if d < peerDist[v] || (d == peerDist[v] && u < peerNext[v]) {
				peerDist[v] = d
				peerNext[v] = u
			}
		}
	}

	// bestLocal is the customer-or-peer choice (customer wins regardless
	// of length).
	type route struct {
		dist int32
		next topology.ASN
		kind int8 // 0 none, 1 customer, 2 peer, 3 provider
	}
	best := make([]route, n)
	for v := 0; v < n; v++ {
		switch {
		case custDist[v] != inf:
			best[v] = route{dist: custDist[v], next: custNext[v], kind: 1}
		case peerDist[v] != inf:
			best[v] = route{dist: peerDist[v], next: peerNext[v], kind: 2}
		}
	}
	best[dest] = route{dist: 0, next: dest, kind: 1}

	// Phase 3 — provider routes: an AS without a customer/peer route uses
	// the best route its providers announce (their own best, any kind).
	// Dijkstra downward; length strictly increases so it terminates.
	pq := &provHeap{}
	for v := 0; v < n; v++ {
		if best[v].kind != 0 {
			for _, c := range g.Customers(topology.ASN(v)) {
				if best[c].kind == 0 {
					heap.Push(pq, provItem{dist: best[v].dist + 1, via: topology.ASN(v), to: c})
				}
			}
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(provItem)
		v := it.to
		if best[v].kind != 0 {
			continue // already settled (customer/peer or earlier provider)
		}
		best[v] = route{dist: it.dist, next: it.via, kind: 3}
		for _, c := range g.Customers(v) {
			if best[c].kind == 0 {
				heap.Push(pq, provItem{dist: it.dist + 1, via: v, to: c})
			}
		}
	}

	// Materialize paths by following next pointers.
	out := make([][]topology.ASN, n)
	var build func(v topology.ASN) []topology.ASN
	built := make([]bool, n)
	build = func(v topology.ASN) []topology.ASN {
		if built[v] {
			return out[v]
		}
		built[v] = true
		if best[v].kind == 0 {
			out[v] = nil
			return nil
		}
		if v == dest {
			out[v] = []topology.ASN{}
			return out[v]
		}
		rest := build(best[v].next)
		if rest == nil && best[v].next != dest {
			out[v] = nil
			return nil
		}
		path := make([]topology.ASN, 0, len(rest)+1)
		path = append(path, best[v].next)
		path = append(path, rest...)
		out[v] = path
		return path
	}
	for v := 0; v < n; v++ {
		build(topology.ASN(v))
	}
	return out
}

// provItem is a pending provider-route offer: via announces a route of
// the given total length to its customer `to`.
type provItem struct {
	dist int32
	via  topology.ASN
	to   topology.ASN
}

type provHeap []provItem

func (h provHeap) Len() int { return len(h) }
func (h provHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].via < h[j].via
}
func (h provHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *provHeap) Push(x any)   { *h = append(*h, x.(provItem)) }
func (h *provHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
