// Package rbgp implements the R-BGP baseline (Kushman et al., NSDI'07) as
// modeled in the STAMP paper's evaluation: standard BGP extended with
// failover-path advertisements to next-hop neighbors, and — when RCI is
// enabled — root-cause information attached to withdrawals so receivers
// can immediately discard every route invalidated by the same failure
// instead of exploring stale alternatives.
package rbgp

import (
	"sort"

	"stamp/internal/bgp"
	"stamp/internal/sim"
	"stamp/internal/topology"
)

// Node is one R-BGP router. It implements sim.Node.
type Node struct {
	Self topology.ASN
	G    *topology.Graph
	Net  *sim.Network
	Sp   *bgp.Speaker
	// RCI enables root-cause information processing and propagation.
	RCI bool

	// failoverIn holds failover routes advertised to this AS by neighbors
	// whose primary paths go through it; used for forwarding only.
	failoverIn map[topology.ASN]*bgp.Route
	// failoverSentTo remembers which neighbor currently holds our failover
	// advertisement and what it was.
	failoverSentTo topology.ASN
	failoverSent   *bgp.Route

	// activeCause is the root cause being processed during the current
	// event, attached to consequent withdrawals when RCI is on.
	activeCause *bgp.Cause

	// OnRouteEvent fires whenever forwarding behavior may have changed.
	OnRouteEvent func()
	// OnTableChange fires only on actual best-route changes.
	OnTableChange func()
}

// NewNode builds an R-BGP node for AS self and registers it with the
// network.
func NewNode(self topology.ASN, g *topology.Graph, e *sim.Engine, net *sim.Network, rci bool) *Node {
	n := &Node{
		Self:       self,
		G:          g,
		Net:        net,
		RCI:        rci,
		failoverIn: make(map[topology.ASN]*bgp.Route),
	}
	n.failoverSentTo = -1
	n.Sp = bgp.NewSpeaker(self, bgp.ColorRed, g, e, func(to topology.ASN, m bgp.Msg) {
		net.Send(self, to, m)
	})
	n.Sp.OnBestChange = n.bestChanged
	net.Register(self, n)
	return n
}

// Originate starts announcing the destination prefix from this AS.
func (n *Node) Originate() { n.Sp.Originate() }

// WithdrawOrigin withdraws the locally originated prefix.
func (n *Node) WithdrawOrigin() { n.Sp.StopOriginating() }

// Recv implements sim.Node.
func (n *Node) Recv(from topology.ASN, payload any) {
	m, ok := payload.(bgp.Msg)
	if !ok {
		return
	}
	if m.Failover {
		if m.Withdraw {
			delete(n.failoverIn, from)
		} else {
			r := m.Route.Clone()
			if r.ContainsAS(n.Self) {
				delete(n.failoverIn, from)
				n.notify()
				return
			}
			r.From = from
			r.FromRel = n.G.Rel(n.Self, from)
			n.failoverIn[from] = r
		}
		if n.Sp.Best() == nil {
			// The failover set is our effective route; re-export.
			n.recomputeDesired(true)
		}
		// Failover knowledge cascades: what we just learned may be the
		// most disjoint path we can offer our own next hop.
		n.refreshFailover()
		n.notify()
		return
	}
	if n.RCI && m.RootCause != nil {
		n.activeCause = m.RootCause
		n.purgeByCause(m.RootCause)
	}
	n.Sp.HandleMsg(from, m)
	if n.Sp.Best() == nil {
		// Running on failover routes; keep exports in sync with effBest.
		n.recomputeDesired(true)
	}
	// Adj-RIB-In changes that leave the best route untouched can still
	// create (or invalidate) the failover we owe our next hop.
	n.refreshFailover()
	n.activeCause = nil
	n.notify()
}

// purgeByCause drops every RIB and failover entry invalidated by the root
// cause, short-circuiting path exploration over obsolete routes.
func (n *Node) purgeByCause(c *bgp.Cause) {
	var stale []topology.ASN
	n.Sp.RibInAll(func(nbr topology.ASN, r *bgp.Route) {
		if c.RouteAffected(r) {
			stale = append(stale, nbr)
		}
	})
	// Withdraw in ASN order: the synthesized withdrawal order (and thus
	// RNG consumption) is part of the run's reproducible outcome.
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, nbr := range stale {
		n.Sp.HandleMsg(nbr, bgp.Msg{Withdraw: true, Color: bgp.ColorRed, CausedByLoss: true, RootCause: c})
	}
	for nbr, r := range n.failoverIn {
		if c.RouteAffected(r) {
			delete(n.failoverIn, nbr)
		}
	}
}

// LinkDown implements sim.Node. The adjacent AS knows the root cause of a
// link failure directly.
func (n *Node) LinkDown(nbr topology.ASN) {
	delete(n.failoverIn, nbr)
	if n.failoverSentTo == nbr {
		n.failoverSentTo = -1
		n.failoverSent = nil
	}
	if n.RCI {
		n.activeCause = &bgp.Cause{A: n.Self, B: nbr}
		n.purgeByCause(n.activeCause)
	}
	n.Sp.PeerDown(nbr)
	if n.Sp.Best() == nil {
		n.recomputeDesired(true)
	}
	n.refreshFailover()
	n.activeCause = nil
	n.notify()
}

// LinkUp implements sim.Node.
func (n *Node) LinkUp(nbr topology.ASN) {
	n.Sp.PeerUp(nbr)
	n.refreshFailover()
	n.notify()
}

func (n *Node) bestChanged(loss bool) {
	n.recomputeDesired(loss)
	n.refreshFailover()
	if n.OnTableChange != nil {
		n.OnTableChange()
	}
	n.notify()
}

func (n *Node) notify() {
	if n.OnRouteEvent != nil {
		n.OnRouteEvent()
	}
}

// effBest is the route the node actually uses and exports: the normal
// best route, or — when the decision process has nothing — the best
// usable failover route. Folding failover paths into the effective route
// is what lets an AS adjacent to a failure keep announcing a working path
// instead of sending a withdrawal wave (R-BGP's core benefit).
func (n *Node) effBest() *bgp.Route {
	if b := n.Sp.Best(); b != nil {
		return b
	}
	var pick *bgp.Route
	for _, r := range n.failoverIn {
		if !n.Net.LinkUp(n.Self, r.From) {
			continue
		}
		if pick == nil || bgp.Better(r, pick) {
			pick = r
		}
	}
	return pick
}

// recomputeDesired reapplies standard export policy, tagging withdrawals
// with the active root cause when RCI is enabled. A failover-derived
// effective route is exported to customers only: customer edges form a
// DAG, so this cannot create the policy disputes that exporting an
// arbitrary backup path upward could.
func (n *Node) recomputeDesired(loss bool) {
	normal := n.Sp.Best()
	best := n.effBest()
	fromFailover := normal == nil && best != nil
	var cause *bgp.Cause
	if n.RCI {
		cause = n.activeCause
	}
	var adv *bgp.Route // built on first use; one advertisement serves every neighbor
	for i, nbr := range n.Sp.Neighbors() {
		rel := n.Sp.NeighborRel(i)
		exportable := best != nil && bgp.CanExport(best, rel) && !best.ContainsAS(nbr)
		if fromFailover && rel != topology.RelCustomer {
			exportable = false
		}
		var out bgp.Out
		if exportable {
			if adv == nil {
				adv = bgp.Advertised(n.Self, best, false, bgp.ColorRed)
			}
			out = bgp.Out{Route: adv, Loss: loss, Cause: cause}
		} else {
			out = bgp.Out{Cause: cause}
		}
		n.Sp.SetDesiredAt(i, out)
	}
}

// refreshFailover advertises our most disjoint alternate path to the
// next-hop neighbor of our best path (R-BGP's core mechanism), and
// withdraws any previously advertised failover that no longer applies.
//
// The advertisement is sticky: once a valid failover has been advertised,
// it is not replaced just because a "more disjoint" candidate appears.
// Failover knowledge propagates transitively (received failovers are
// candidates), so improvement-chasing would let advertisement changes
// feed each other around cycles of ASes forever — stickiness makes the
// cascade terminate: an advertisement changes only when the next hop
// changes or the advertised path stops being available.
func (n *Node) refreshFailover() {
	best := n.Sp.Best()
	var to topology.ASN = -1
	if best != nil && !best.Origin {
		to = best.From
	}
	if n.failoverSentTo >= 0 && n.failoverSentTo != to {
		// Next hop changed: withdraw from the old one.
		if n.Sp.SessionUp(n.failoverSentTo) {
			n.Net.Send(n.Self, n.failoverSentTo, bgp.Msg{
				Withdraw: true, Failover: true, Color: bgp.ColorRed, CausedByLoss: true,
			})
		}
		n.failoverSentTo = -1
		n.failoverSent = nil
	}
	if to < 0 {
		return
	}
	if n.failoverSentTo == to && n.failoverSent != nil && n.failoverStillAvailable(to) {
		return
	}
	alt := n.pickFailover(to)
	if alt == nil {
		if n.failoverSentTo == to {
			if n.Sp.SessionUp(to) {
				n.Net.Send(n.Self, to, bgp.Msg{
					Withdraw: true, Failover: true, Color: bgp.ColorRed, CausedByLoss: true,
				})
			}
			n.failoverSentTo = -1
			n.failoverSent = nil
		}
		return
	}
	adv := bgp.Advertised(n.Self, alt, false, bgp.ColorRed)
	if n.failoverSentTo == to && n.failoverSent != nil && n.failoverSent.Equal(adv) {
		return
	}
	n.failoverSentTo = to
	n.failoverSent = adv
	n.Net.Send(n.Self, to, bgp.Msg{Route: adv, Failover: true, Color: bgp.ColorRed})
}

// failoverStillAvailable reports whether the currently advertised
// failover still corresponds to a live candidate route.
func (n *Node) failoverStillAvailable(to topology.ASN) bool {
	sent := n.failoverSent
	if sent == nil {
		return false
	}
	ok := false
	check := func(nbr topology.ASN, r *bgp.Route) {
		if ok || nbr == to || r.ContainsAS(to) {
			return
		}
		if sent.EqualsAdvertised(n.Self, r, false, bgp.ColorRed) {
			ok = true
		}
	}
	n.Sp.RibInAll(check)
	for nbr, r := range n.failoverIn {
		check(nbr, r)
	}
	return ok
}

// pickFailover selects the most disjoint path we know that avoids the
// next-hop neighbor entirely. Both normal Adj-RIB-In routes and failover
// routes received from neighbors are candidates: failover paths must
// propagate transitively down the routing tree, or ASes deep inside a
// single-path cone (including the one adjacent to the failure) would
// never learn a backup.
func (n *Node) pickFailover(nextHop topology.ASN) *bgp.Route {
	best := n.Sp.Best()
	var pick *bgp.Route
	bestShared := -1
	consider := func(nbr topology.ASN, r *bgp.Route) {
		if nbr == nextHop || r.ContainsAS(nextHop) {
			return
		}
		shared := sharedASes(best, r)
		if pick == nil || shared < bestShared || (shared == bestShared && bgp.Better(r, pick)) {
			pick = r
			bestShared = shared
		}
	}
	n.Sp.RibInAll(consider)
	for nbr, r := range n.failoverIn {
		consider(nbr, r)
	}
	return pick
}

// sharedASes counts ASes (other than the origin) appearing on both paths.
// AS paths are short, so a scan beats building a set.
func sharedASes(a, b *bgp.Route) int {
	if a == nil || b == nil || len(b.Path) == 0 {
		return 0
	}
	shared := 0
	for _, v := range b.Path[:len(b.Path)-1] { // the origin is necessarily shared
		if a.ContainsAS(v) {
			shared++
		}
	}
	return shared
}

// Primary returns the decision-process next hop, honoring link state.
// The AS itself is returned for an originated route.
func (n *Node) Primary() (topology.ASN, bool) {
	best := n.Sp.Best()
	if best == nil {
		return 0, false
	}
	if best.Origin {
		return n.Self, true
	}
	if !n.Net.LinkUp(n.Self, best.From) {
		return 0, false
	}
	return best.From, true
}

// Deflect returns the failover AS path a packet deflected here would be
// pinned to (R-BGP forwards deflected packets along the advertised
// failover path), or nil when none is available. prev is the neighbor the
// packet arrived from (-1 for locally sourced traffic).
func (n *Node) Deflect(prev topology.ASN) []topology.ASN {
	var pick *bgp.Route
	consider := func(_ topology.ASN, r *bgp.Route) {
		if r.Origin || r.From == prev || r.ContainsAS(prev) || !n.Net.LinkUp(n.Self, r.From) {
			return
		}
		if pick == nil || bgp.Better(r, pick) {
			pick = r
		}
	}
	n.Sp.RibInAll(consider)
	for nbr, r := range n.failoverIn {
		consider(nbr, r)
	}
	if pick == nil {
		return nil
	}
	return pick.Path
}
