package sim

import (
	"fmt"
	"time"

	"stamp/internal/topology"
)

// Node is a protocol instance attached to one AS. The network delivers
// routing messages and link state changes to it.
type Node interface {
	// Recv handles a routing message from a neighbor.
	Recv(from topology.ASN, payload any)
	// LinkDown tells the node its link (and BGP session) to nbr failed.
	LinkDown(nbr topology.ASN)
	// LinkUp tells the node its link to nbr (re-)appeared.
	LinkUp(nbr topology.ASN)
}

// linkKey canonicalizes an undirected link.
type linkKey struct{ a, b topology.ASN }

func mkLink(a, b topology.ASN) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Network connects Nodes according to an AS topology, delivering messages
// with the engine's random delay and dropping traffic over failed links.
type Network struct {
	E *Engine
	G *topology.Graph

	nodes []Node
	down  map[linkKey]bool
	// downAt counts the failed links incident to each AS, so that
	// LinkUp — called on every Send, delivery and data-plane sample —
	// consults the down map only next to a failure.
	downAt []int32
	// lastArrival enforces FIFO delivery per directed (from, to) pair:
	// BGP sessions run over TCP, so a later message must never overtake
	// an earlier one.
	lastArrival map[linkKey]time.Duration

	// Messages counts every routing message delivered, keyed by nothing;
	// the MsgHook lets drivers classify payloads without sim importing
	// protocol packages.
	MessagesSent int64
	// MsgHook, when non-nil, observes every payload accepted for
	// delivery.
	MsgHook func(from, to topology.ASN, payload any)
}

// NewNetwork builds a network over g driven by engine e. Nodes must be
// registered before the simulation starts.
func NewNetwork(e *Engine, g *topology.Graph) *Network {
	n := &Network{
		E:           e,
		G:           g,
		nodes:       make([]Node, g.Len()),
		down:        make(map[linkKey]bool),
		downAt:      make([]int32, g.Len()),
		lastArrival: make(map[linkKey]time.Duration),
	}
	e.net = n
	return n
}

// Register attaches node as the protocol instance of AS a.
func (n *Network) Register(a topology.ASN, node Node) {
	n.nodes[a] = node
}

// LinkUp reports whether the link between a and b is operational. Links
// absent from the topology are never up.
func (n *Network) LinkUp(a, b topology.ASN) bool {
	// Adjacency is symmetric: scan the shorter neighbor list.
	if n.G.Degree(b) < n.G.Degree(a) {
		a, b = b, a
	}
	if n.G.Rel(a, b) == topology.RelNone {
		return false
	}
	return n.downAt[a] == 0 || n.downAt[b] == 0 || !n.down[mkLink(a, b)]
}

// Send queues a routing message from one AS to a neighbor. Messages sent
// over a failed link, or whose link fails before delivery, are dropped,
// mirroring TCP session teardown on link failure.
func (n *Network) Send(from, to topology.ASN, payload any) {
	if !n.LinkUp(from, to) {
		return
	}
	n.MessagesSent++
	if n.MsgHook != nil {
		n.MsgHook(from, to, payload)
	}
	at := n.E.Now() + n.E.Delay()
	dir := linkKey{a: from, b: to} // directed: no canonicalization
	if last := n.lastArrival[dir]; at <= last {
		at = last + time.Nanosecond
	}
	n.lastArrival[dir] = at
	n.E.schedule(event{at: at, from: from, to: to, payload: payload})
}

// deliver hands a message that arrived to its receiver, unless the link
// failed while it was in flight.
func (n *Network) deliver(from, to topology.ASN, payload any) {
	if !n.LinkUp(from, to) {
		return
	}
	if node := n.nodes[to]; node != nil {
		node.Recv(from, payload)
	}
}

// FailLink takes the link between a and b down. Both endpoints learn of
// the failure after a detection delay, as in the paper, where ASes
// adjacent to the event detect it first and everyone else learns through
// routing updates.
func (n *Network) FailLink(a, b topology.ASN) error {
	if n.G.Rel(a, b) == topology.RelNone {
		return fmt.Errorf("sim: no link between %d and %d", a, b)
	}
	k := mkLink(a, b)
	if n.down[k] {
		return fmt.Errorf("sim: link %d--%d already down", a, b)
	}
	n.down[k] = true
	n.downAt[a]++
	n.downAt[b]++
	n.E.After(n.E.Delay(), func() {
		if node := n.nodes[a]; node != nil {
			node.LinkDown(b)
		}
	})
	n.E.After(n.E.Delay(), func() {
		if node := n.nodes[b]; node != nil {
			node.LinkDown(a)
		}
	})
	return nil
}

// RestoreLink brings a failed link back up and notifies both endpoints.
func (n *Network) RestoreLink(a, b topology.ASN) error {
	k := mkLink(a, b)
	if !n.down[k] {
		return fmt.Errorf("sim: link %d--%d is not down", a, b)
	}
	delete(n.down, k)
	n.downAt[a]--
	n.downAt[b]--
	n.E.After(n.E.Delay(), func() {
		if node := n.nodes[a]; node != nil {
			node.LinkUp(b)
		}
	})
	n.E.After(n.E.Delay(), func() {
		if node := n.nodes[b]; node != nil {
			node.LinkUp(a)
		}
	})
	return nil
}

// FailNode fails every link adjacent to a, modeling a whole-AS failure
// (the paper's "single node failure", an AS withdrawing its routes from
// all neighbors).
func (n *Network) FailNode(a topology.ASN) {
	var nbrs []topology.ASN
	nbrs = n.G.Neighbors(nbrs, a)
	for _, b := range nbrs {
		if n.LinkUp(a, b) {
			// Errors impossible: link exists and is up.
			if err := n.FailLink(a, b); err != nil {
				panic(err)
			}
		}
	}
}
