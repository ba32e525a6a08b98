// Package bgp implements the BGP route model, policy engine, and the
// per-process "speaker" used by every protocol in this repository:
// standard BGP, R-BGP, and the red/blue processes of STAMP.
//
// The simulation is per-prefix: each run studies routing toward a single
// destination AS, which is how the paper's experiments are structured.
package bgp

import (
	"fmt"
	"strings"

	"stamp/internal/topology"
)

// Color identifies which of STAMP's two routing processes a route or
// message belongs to. Plain BGP and R-BGP use ColorRed throughout.
type Color uint8

const (
	// ColorRed is STAMP's red process (also used by single-process
	// protocols).
	ColorRed Color = iota
	// ColorBlue is STAMP's blue process.
	ColorBlue
)

// String returns "red" or "blue".
func (c Color) String() string {
	if c == ColorRed {
		return "red"
	}
	return "blue"
}

// Route is one BGP route toward the (implicit) destination prefix as held
// in an AS's Adj-RIB-In or Loc-RIB.
type Route struct {
	// Path is the AS path from the holder toward the origin: Path[0] is
	// the neighbor the route was learned from (the forwarding next hop),
	// Path[len-1] is the origin AS. For a route originated locally, Path
	// is empty and Origin is true.
	Path []topology.ASN
	// From is the neighbor the route was learned from (== Path[0] for
	// learned routes, the local AS for originated ones).
	From topology.ASN
	// FromRel is the business relationship of From as seen by the local
	// AS, which determines local preference and export policy.
	FromRel topology.Rel
	// Origin marks a locally originated route.
	Origin bool
	// Lock is STAMP's Lock path attribute: a locked blue route must keep
	// propagating to at least one provider, guaranteeing a blue path
	// reaches a tier-1 AS.
	Lock bool
	// Color is the routing process the route belongs to.
	Color Color
}

// Clone returns a deep copy of the route.
func (r *Route) Clone() *Route {
	if r == nil {
		return nil
	}
	c := *r
	c.Path = append([]topology.ASN(nil), r.Path...)
	return &c
}

// ContainsAS reports whether v appears on the route's AS path.
func (r *Route) ContainsAS(v topology.ASN) bool {
	return topology.PathContainsAS(r.Path, v)
}

// ContainsLink reports whether the AS path traverses the undirected link
// {a, b}. The holder-side first hop (holder -> Path[0]) is not covered,
// because the holder is not recorded in Path; callers that need it check
// From separately.
func (r *Route) ContainsLink(a, b topology.ASN) bool {
	return topology.PathContainsLink(r.Path, a, b)
}

// String renders the route compactly for logs and tests.
func (r *Route) String() string {
	if r == nil {
		return "<no route>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s[", r.Color)
	if r.Origin {
		b.WriteString("origin")
	} else {
		for i, v := range r.Path {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
	}
	b.WriteByte(']')
	if r.Lock {
		b.WriteString("+lock")
	}
	return b.String()
}

// Equal reports whether two routes would be indistinguishable on the wire
// (same path, lock bit, and color). From/FromRel are receiver-local and
// not compared.
func (r *Route) Equal(o *Route) bool {
	if r == nil || o == nil {
		return r == o
	}
	if r.Origin != o.Origin || r.Lock != o.Lock || r.Color != o.Color || len(r.Path) != len(o.Path) {
		return false
	}
	for i := range r.Path {
		if r.Path[i] != o.Path[i] {
			return false
		}
	}
	return true
}

// LocalPref maps the relationship a route was learned over to its local
// preference, implementing the prefer-customer policy: customer routes
// over peer routes over provider routes. Originated routes outrank all.
func LocalPref(r *Route) int {
	if r.Origin {
		return 1000
	}
	switch r.FromRel {
	case topology.RelCustomer:
		return 100
	case topology.RelPeer:
		return 90
	case topology.RelProvider:
		return 80
	}
	return 0
}

// Better reports whether a is preferred over b under the deterministic BGP
// decision process: higher local preference, then shorter AS path, then
// lowest neighbor ASN as the final tie-break. A nil route is worse than
// any route.
func Better(a, b *Route) bool {
	if a == nil {
		return false
	}
	if b == nil {
		return true
	}
	la, lb := LocalPref(a), LocalPref(b)
	if la != lb {
		return la > lb
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	return a.From < b.From
}

// CanExport implements the valley-free export rule: a route learned from a
// customer (or originated locally) may be exported to anyone; routes
// learned from peers or providers may only be exported to customers.
func CanExport(r *Route, toRel topology.Rel) bool {
	if r == nil {
		return false
	}
	if r.Origin || r.FromRel == topology.RelCustomer {
		return true
	}
	return toRel == topology.RelCustomer
}

// Advertised builds the route as it will be received by a neighbor when
// self advertises base: self is prepended to the AS path, the Lock bit is
// forced to lock, and the color set to c. From/FromRel are filled in by
// the receiver.
func Advertised(self topology.ASN, base *Route, lock bool, c Color) *Route {
	path := make([]topology.ASN, 0, len(base.Path)+1)
	path = append(path, self)
	path = append(path, base.Path...)
	return &Route{Path: path, Lock: lock, Color: c}
}

// EqualsAdvertised reports whether r equals Advertised(self, base, lock,
// c) without building that route.
func (r *Route) EqualsAdvertised(self topology.ASN, base *Route, lock bool, c Color) bool {
	if r == nil || r.Origin || r.Lock != lock || r.Color != c || len(r.Path) != len(base.Path)+1 || r.Path[0] != self {
		return false
	}
	for i, v := range base.Path {
		if r.Path[i+1] != v {
			return false
		}
	}
	return true
}
