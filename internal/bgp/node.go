package bgp

import (
	"stamp/internal/sim"
	"stamp/internal/topology"
)

// Node is a standard BGP router for one AS: a single routing process with
// prefer-customer selection and valley-free export. It implements
// sim.Node.
type Node struct {
	Self topology.ASN
	G    *topology.Graph
	Net  *sim.Network
	Sp   *Speaker

	// OnRouteEvent fires whenever the node's forwarding behavior may have
	// changed; the experiment drivers use it to schedule data-plane
	// sweeps.
	OnRouteEvent func()
	// OnTableChange fires only when the routing table (best route)
	// actually changed, which is what convergence-time measurements care
	// about.
	OnTableChange func()
}

// NewNode builds a standard BGP node for AS self and registers it with
// the network.
func NewNode(self topology.ASN, g *topology.Graph, e *sim.Engine, net *sim.Network) *Node {
	n := &Node{Self: self, G: g, Net: net}
	n.Sp = NewSpeaker(self, ColorRed, g, e, func(to topology.ASN, m Msg) {
		net.Send(self, to, m)
	})
	n.Sp.OnBestChange = n.bestChanged
	net.Register(self, n)
	return n
}

// Originate starts announcing the destination prefix from this AS.
func (n *Node) Originate() { n.Sp.Originate() }

// WithdrawOrigin withdraws the locally originated prefix (a route
// withdrawal event at the origin).
func (n *Node) WithdrawOrigin() { n.Sp.StopOriginating() }

// Recv implements sim.Node.
func (n *Node) Recv(from topology.ASN, payload any) {
	m, ok := payload.(Msg)
	if !ok || m.Failover {
		return
	}
	n.Sp.HandleMsg(from, m)
}

// LinkDown implements sim.Node.
func (n *Node) LinkDown(nbr topology.ASN) {
	n.Sp.PeerDown(nbr)
	n.notify()
}

// LinkUp implements sim.Node.
func (n *Node) LinkUp(nbr topology.ASN) {
	n.Sp.PeerUp(nbr)
	n.notify()
}

func (n *Node) bestChanged(loss bool) {
	n.recomputeDesired(loss)
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

// recomputeDesired reapplies export policy after a best-route change.
func (n *Node) recomputeDesired(loss bool) {
	sp := n.Sp
	best := sp.Best()
	var adv *Route // built on first use; one advertisement serves every neighbor
	for i, nbr := range sp.Neighbors() {
		var out Out
		if best != nil && CanExport(best, sp.NeighborRel(i)) && !best.ContainsAS(nbr) && best.From != nbr {
			if adv == nil {
				adv = Advertised(n.Self, best, false, ColorRed)
			}
			out = Out{Route: adv, Loss: loss}
		}
		sp.SetDesiredAt(i, out)
	}
}

// NextHop returns the current forwarding next hop toward the destination,
// honoring link state: a next hop over a failed link is unusable. The
// second result is false when the node has no usable route. Origin nodes
// return themselves with ok true.
func (n *Node) NextHop() (topology.ASN, bool) {
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
