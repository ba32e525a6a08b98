package bgp

import (
	"time"

	"stamp/internal/sim"
	"stamp/internal/topology"
)

// Out describes what a node wants advertised to one neighbor: a route, or
// nil for withdrawal, plus the event-type metadata to attach.
type Out struct {
	// Route is the route to advertise (receiver perspective), nil to
	// withdraw any previous advertisement.
	Route *Route
	// Loss marks the advertisement as ultimately caused by a route loss
	// (the paper's ET=0).
	Loss bool
	// Cause optionally carries R-BGP root-cause information.
	Cause *Cause
}

// Speaker is one BGP routing process at one AS: it maintains the
// Adj-RIB-In, runs the decision process, and paces outbound announcements
// with per-peer MRAI timers. What gets announced to whom is decided by the
// owning node via SetDesired, which is how STAMP's selective announcements
// and R-BGP's failover advertisements are layered on top of an unchanged
// process — exactly the paper's "mostly unchanged BGP process" design.
type Speaker struct {
	Self  topology.ASN
	Color Color
	G     *topology.Graph
	E     *sim.Engine
	// Send transmits a message to a neighbor. Set by the owning node.
	Send func(to topology.ASN, m Msg)
	// OnBestChange fires after the best route changes; loss reports
	// whether the change was triggered by losing a route (ET=0 semantics).
	OnBestChange func(loss bool)

	best   *Route
	origin *Route

	// nbrs lists the neighbors in topology.Graph.Neighbors order and
	// peers holds each one's session state at the same position.
	nbrs  []topology.ASN
	peers []peer

	// Unstable is the data-plane instability flag of §5.2: set when the
	// process loses its route or its best route is replaced due to a
	// loss-caused update; cleared when a non-loss update installs a best
	// route or when the process settles (no loss-caused changes for the
	// engine's SettleDelay). The forwarding plane switches colors based
	// on it.
	Unstable bool
	// OnStabilize, when non-nil, fires when the settle timer clears
	// Unstable, so owners can refresh data-plane observers.
	OnStabilize func()

	lastLossAt time.Duration

	// UpdatesSent counts announcements, WithdrawalsSent withdrawals, for
	// the protocol overhead experiment.
	UpdatesSent     int64
	WithdrawalsSent int64
}

// peer is the speaker's state for one neighbor.
type peer struct {
	// rel is the neighbor's relationship as seen by the speaker.
	rel topology.Rel
	// up reports whether the session is up; mrai whether the MRAI timer
	// toward the neighbor is running.
	up, mrai bool
	// ribIn is the route learned from the neighbor (its Adj-RIB-In
	// entry), nil if none.
	ribIn *Route
	// desired is what should be advertised to the neighbor; lastSent is
	// what was, nil after a withdrawal.
	desired  Out
	lastSent *Route
}

// NewSpeaker builds a speaker for AS self with sessions to all its
// topology neighbors initially up.
func NewSpeaker(self topology.ASN, color Color, g *topology.Graph, e *sim.Engine, send func(to topology.ASN, m Msg)) *Speaker {
	s := &Speaker{
		Self:  self,
		Color: color,
		G:     g,
		E:     e,
		Send:  send,
		nbrs:  g.Neighbors(nil, self),
	}
	// Neighbors lists providers, then peers, then customers.
	np, npeer := len(g.Providers(self)), len(g.Peers(self))
	s.peers = make([]peer, len(s.nbrs))
	for i := range s.peers {
		rel := topology.RelCustomer
		switch {
		case i < np:
			rel = topology.RelProvider
		case i < np+npeer:
			rel = topology.RelPeer
		}
		s.peers[i] = peer{rel: rel, up: true}
	}
	return s
}

// index returns nbr's position in s.nbrs, -1 if it is not a neighbor.
func (s *Speaker) index(nbr topology.ASN) int {
	for i, n := range s.nbrs {
		if n == nbr {
			return i
		}
	}
	return -1
}

// peerOf returns the state of neighbor nbr, nil if nbr is not one.
func (s *Speaker) peerOf(nbr topology.ASN) *peer {
	if i := s.index(nbr); i >= 0 {
		return &s.peers[i]
	}
	return nil
}

// Best returns the current best route (nil if none).
func (s *Speaker) Best() *Route { return s.best }

// BestPath exports the selected route's AS path for RIB dumps and
// sim-vs-live differential validation: ok is false when the process has
// no route; a locally originated route yields an empty (non-nil) path.
// The returned slice is a copy.
func (s *Speaker) BestPath() (path []topology.ASN, ok bool) {
	if s.best == nil {
		return nil, false
	}
	if s.best.Origin {
		return []topology.ASN{}, true
	}
	return append([]topology.ASN(nil), s.best.Path...), true
}

// RibIn returns the route learned from one neighbor (nil if none).
func (s *Speaker) RibIn(nbr topology.ASN) *Route {
	if p := s.peerOf(nbr); p != nil {
		return p.ribIn
	}
	return nil
}

// RibInAll iterates over all Adj-RIB-In entries, in neighbor order.
func (s *Speaker) RibInAll(f func(nbr topology.ASN, r *Route)) {
	for i := range s.peers {
		if r := s.peers[i].ribIn; r != nil {
			f(s.nbrs[i], r)
		}
	}
}

// SessionUp reports whether the session to nbr is up.
func (s *Speaker) SessionUp(nbr topology.ASN) bool {
	p := s.peerOf(nbr)
	return p != nil && p.up
}

// Originate makes this speaker the origin of the prefix.
func (s *Speaker) Originate() {
	s.origin = &Route{From: s.Self, Origin: true, Color: s.Color}
	s.evaluate(false)
}

// StopOriginating withdraws local origination (a route withdrawal event).
func (s *Speaker) StopOriginating() {
	if s.origin == nil {
		return
	}
	s.origin = nil
	s.evaluate(true)
}

// HandleMsg processes one inbound routing message. Messages from down
// sessions are discarded: no session, no routes — the network layer
// already drops in-flight traffic on failure, this guards the speaker
// itself.
func (s *Speaker) HandleMsg(from topology.ASN, m Msg) {
	if m.Color != s.Color {
		return
	}
	p := s.peerOf(from)
	if p == nil || !p.up {
		return
	}
	if m.Withdraw {
		if p.ribIn == nil {
			return
		}
		p.ribIn = nil
		s.evaluate(true)
		return
	}
	if m.Route.ContainsAS(s.Self) {
		// Loop: the neighbor now routes through us; treat as implicit
		// withdrawal of whatever it previously offered.
		if p.ribIn != nil {
			p.ribIn = nil
			s.evaluate(true)
		}
		return
	}
	r := m.Route.Clone()
	r.From = from
	r.FromRel = p.rel
	p.ribIn = r
	s.evaluate(m.CausedByLoss)
}

// PeerDown tears down the session to nbr: its routes are lost and nothing
// further is sent to it until PeerUp.
func (s *Speaker) PeerDown(nbr topology.ASN) {
	p := s.peerOf(nbr)
	if p == nil || !p.up {
		return
	}
	p.up = false
	p.lastSent = nil
	if p.ribIn != nil {
		p.ribIn = nil
		s.evaluate(true)
	}
}

// PeerUp restores the session to nbr and replays the desired
// advertisement.
func (s *Speaker) PeerUp(nbr topology.ASN) {
	p := s.peerOf(nbr)
	if p == nil || p.up {
		return
	}
	p.up = true
	s.pump(nbr, p)
}

// Neighbors returns the speaker's neighbors in topology.Graph.Neighbors
// order: providers, then peers, then customers. A neighbor's position in
// it is its index for NeighborRel and SetDesiredAt. The slice is shared
// and must not be modified.
func (s *Speaker) Neighbors() []topology.ASN { return s.nbrs }

// NeighborRel returns the relationship of the i-th neighbor as seen by
// the speaker.
func (s *Speaker) NeighborRel(i int) topology.Rel { return s.peers[i].rel }

// SetDesired records what should be advertised to nbr and pumps the
// output machinery (immediately for withdrawals, MRAI-paced for
// announcements). o.Route is sent as is and must not be modified
// afterwards; one route may be desired for several neighbors.
func (s *Speaker) SetDesired(nbr topology.ASN, o Out) {
	if i := s.index(nbr); i >= 0 {
		s.SetDesiredAt(i, o)
	}
}

// SetDesiredAt is SetDesired for the i-th neighbor, without the search.
func (s *Speaker) SetDesiredAt(i int, o Out) {
	p := &s.peers[i]
	p.desired = o
	s.pump(s.nbrs[i], p)
}

// Desired returns the currently desired advertisement for nbr.
func (s *Speaker) Desired(nbr topology.ASN) Out {
	if p := s.peerOf(nbr); p != nil {
		return p.desired
	}
	return Out{}
}

// evaluate reruns the decision process; loss tags the triggering event as
// loss-caused for ET bookkeeping.
func (s *Speaker) evaluate(loss bool) {
	var best *Route
	if s.origin != nil {
		best = s.origin
	}
	for i := range s.peers {
		if r := s.peers[i].ribIn; r != nil && Better(r, best) {
			best = r
		}
	}
	if routesIdentical(best, s.best) {
		s.best = best
		return
	}
	s.best = best
	if loss {
		s.Unstable = true
		s.lastLossAt = s.E.Now()
		if d := s.E.P.SettleDelay; d > 0 {
			at := s.lastLossAt
			s.E.After(d, func() {
				if s.Unstable && s.lastLossAt == at {
					s.Unstable = false
					if s.OnStabilize != nil {
						s.OnStabilize()
					}
				}
			})
		}
	} else if best != nil {
		s.Unstable = false
	}
	if s.OnBestChange != nil {
		s.OnBestChange(loss)
	}
}

// routesIdentical compares two routes including receiver-local fields, to
// suppress no-op best changes.
func routesIdentical(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.From == b.From && a.Equal(b)
}

// pump advances the output state machine for neighbor nbr, whose state
// is p. Routes go out uncloned: a desired route is never modified, and
// every receiver clones what it keeps.
func (s *Speaker) pump(nbr topology.ASN, p *peer) {
	if !p.up {
		return
	}
	d := p.desired
	last := p.lastSent
	if d.Route == nil {
		if last != nil {
			p.lastSent = nil
			s.WithdrawalsSent++
			s.Send(nbr, Msg{Withdraw: true, Color: s.Color, CausedByLoss: true, RootCause: d.Cause})
		}
		return
	}
	if last != nil && d.Route.Equal(last) {
		return
	}
	if d.Cause != nil {
		// Root-caused updates (R-BGP RCI) bypass MRAI: the failure
		// information must outrun stale-path exploration to be useful.
		p.lastSent = d.Route
		s.UpdatesSent++
		s.Send(nbr, Msg{Route: d.Route, Color: s.Color, CausedByLoss: d.Loss, RootCause: d.Cause})
		return
	}
	if p.mrai {
		return // pump re-runs when the timer expires
	}
	p.lastSent = d.Route
	s.UpdatesSent++
	s.Send(nbr, Msg{Route: d.Route, Color: s.Color, CausedByLoss: d.Loss, RootCause: d.Cause})
	p.mrai = true
	s.E.After(s.E.MRAI(), func() {
		p.mrai = false
		s.pump(nbr, p)
	})
}

// HasRoute reports whether the process currently has any route.
func (s *Speaker) HasRoute() bool { return s.best != nil }

// NextHop returns the forwarding next hop of the best route. For an
// originated route ok is true with the AS itself, which callers treat as
// "delivered".
func (s *Speaker) NextHop() (topology.ASN, bool) {
	if s.best == nil {
		return 0, false
	}
	return s.best.From, true
}
