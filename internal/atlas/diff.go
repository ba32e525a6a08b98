package atlas

import (
	"fmt"

	"stamp/internal/topology"
)

// The differential fixpoint harness: after any event, an incrementally
// re-settled state (ApplyEvent) must hold exactly the routes a
// from-scratch convergence on the same damaged topology produces
// (ConvergeScratch). DiffStates is the comparator; the table-driven and
// fuzz tests in incremental_test.go / fuzz_test.go drive it after every
// event of every scenario kind, on both the flat engine and the
// test-only map-backed reference — the same discipline that pins
// sim-vs-emu elsewhere in the repository.

// StateView is the read-only route surface DiffStates compares. *State
// implements it, and so does the tests' map-backed reference state.
type StateView interface {
	// Dest is the destination the state converged.
	Dest() topology.ASN
	// ASCount is the number of ASes in the state's graph.
	ASCount() int
	// RouteAt returns plane p's current route at AS a: the Gao-Rexford
	// preference rank (0 none, 1 customer, 2 peer, 3 provider), the
	// path length, and the adjacency-entry index of the next hop (-1
	// none, -2 origin). Routeless ASes normalize to (0, 0, -1).
	RouteAt(p int, a int32) (kind int8, dist int32, via int32)
}

// PlaneName names a plane index in diff output and in reports.
func PlaneName(p int) string {
	switch p {
	case planeBGP:
		return "bgp"
	case planeRed:
		return "red"
	case planeBlue:
		return "blue"
	}
	return fmt.Sprintf("plane(%d)", p)
}

// RouteDiff is one (plane, AS) where two converged states disagree.
type RouteDiff struct {
	Plane        int
	AS           topology.ASN
	AKind, BKind int8
	ADist, BDist int32
	AVia, BVia   int32
}

// String renders the diff for test failures.
func (d RouteDiff) String() string {
	return fmt.Sprintf("%s@%d: (kind %d, dist %d, via %d) != (kind %d, dist %d, via %d)",
		PlaneName(d.Plane), d.AS, d.AKind, d.ADist, d.AVia, d.BKind, d.BDist, d.BVia)
}

// DiffStates compares every (plane, AS) route of two converged states
// and returns the disagreements (nil when the fixpoints agree exactly).
// Both states must be over the same graph and destination; a mismatch
// there is reported as a single synthetic diff at AS -1.
func DiffStates(a, b StateView) []RouteDiff {
	if a.ASCount() != b.ASCount() || a.Dest() != b.Dest() {
		return []RouteDiff{{Plane: -1, AS: -1}}
	}
	var diffs []RouteDiff
	n := int32(a.ASCount())
	for p := 0; p < planeCount; p++ {
		for as := int32(0); as < n; as++ {
			ak, ad, av := a.RouteAt(p, as)
			bk, bd, bv := b.RouteAt(p, as)
			if ak != bk || ad != bd || av != bv {
				diffs = append(diffs, RouteDiff{
					Plane: p, AS: topology.ASN(as),
					AKind: ak, BKind: bk, ADist: ad, BDist: bd, AVia: av, BVia: bv,
				})
			}
		}
	}
	return diffs
}

// Dest implements StateView.
func (st *State) Dest() topology.ASN { return st.dest }

// ASCount implements StateView.
func (st *State) ASCount() int { return st.g.Len() }

// RouteAt implements StateView.
func (st *State) RouteAt(p int, a int32) (int8, int32, int32) {
	return st.cur[p][a].split()
}
