package atlas

import "fmt"

// Exported plane indices for consumers that snapshot per-plane routes
// (the serve layer's epoch snapshots). They mirror the internal
// constants exactly.
const (
	PlaneBGP   = planeBGP
	PlaneRed   = planeRed
	PlaneBlue  = planeBlue
	PlaneCount = planeCount
)

// SnapshotRoutes copies plane p's converged routes out of the state's
// slabs into caller-owned slices, each of length ASCount: the
// Gao-Rexford kind rank (0 none), the path length, and the dense AS id
// of the next hop (-1 none, -2 origin). Unlike RouteAt's via (an
// adjacency-entry index), next is resolved to the neighbor AS so
// readers never need the graph's internals. The caller provides the
// destination slices so a serving layer can reuse its epoch buffers
// without allocation.
func (st *State) SnapshotRoutes(p int, kind []int8, dist []int32, next []int32) {
	n := st.g.Len()
	if p < 0 || p >= planeCount {
		panic(fmt.Sprintf("atlas: SnapshotRoutes plane %d out of range", p))
	}
	if len(kind) < n || len(dist) < n || len(next) < n {
		panic(fmt.Sprintf("atlas: SnapshotRoutes buffers shorter than %d ASes", n))
	}
	for a, r := range st.cur[p][:n] {
		k, d, v := r.split()
		kind[a], dist[a], next[a] = k, d, st.nextHopAS(v)
	}
}

// KindName names a route-kind rank for JSON surfaces.
func KindName(k int8) string {
	switch k {
	case kindNone:
		return "none"
	case kindCustomer:
		return "customer"
	case kindPeer:
		return "peer"
	case kindProvider:
		return "provider"
	}
	return fmt.Sprintf("kind(%d)", k)
}
