// Package experiments contains one harness per figure and claim in the
// paper's evaluation (§6): the Φ disjointness CDF (Figure 1), transient
// problems under single and multiple link failures for BGP, R-BGP with
// and without RCI, and STAMP (Figures 2 and 3), the §6.3 experiments on
// partial deployment, protocol overhead, and convergence delay, and a
// topology-seed × scenario sweep grid beyond the paper's own evaluation.
//
// Every harness is expressed as enumerable trials over internal/runner:
// independent (trial, protocol) shards with seeds derived from a master
// seed, executed on a worker pool and folded into mergeable
// internal/metrics aggregates in trial order. Aggregated results — text
// or JSON — are bit-identical for any worker count (see DESIGN.md).
package experiments

import (
	"fmt"

	"stamp/internal/bgp"
	"stamp/internal/core"
	"stamp/internal/forwarding"
	"stamp/internal/rbgp"
	"stamp/internal/sim"
	"stamp/internal/topology"
	"stamp/internal/traffic"
)

// Protocol selects the routing protocol under test.
type Protocol int

const (
	// ProtoBGP is standard BGP.
	ProtoBGP Protocol = iota
	// ProtoRBGPNoRCI is R-BGP with failover paths but without root cause
	// information.
	ProtoRBGPNoRCI
	// ProtoRBGP is full R-BGP with RCI.
	ProtoRBGP
	// ProtoSTAMP is the paper's multi-process protocol.
	ProtoSTAMP
)

// AllProtocols lists the four protocols in the paper's presentation
// order.
func AllProtocols() []Protocol {
	return []Protocol{ProtoBGP, ProtoRBGPNoRCI, ProtoRBGP, ProtoSTAMP}
}

// String names the protocol as in the paper's figures.
func (p Protocol) String() string {
	switch p {
	case ProtoBGP:
		return "BGP"
	case ProtoRBGPNoRCI:
		return "R-BGP without RCI"
	case ProtoRBGP:
		return "R-BGP"
	case ProtoSTAMP:
		return "STAMP"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// instance is a fully built simulation of one protocol on one topology
// with one destination.
type instance struct {
	proto Protocol
	g     *topology.Graph
	e     *sim.Engine
	net   *sim.Network
	dest  topology.ASN

	bgpNodes   []*bgp.Node
	rbgpNodes  []*rbgp.Node
	stampNodes []*core.Node

	// R-BGP classification: the walker's view of the nodes and its
	// scratch, reused across sweeps.
	rbgp    traffic.RBGPView
	walker  traffic.Walker
	primary []int32
	walk    traffic.Walk
}

// buildInstance constructs engine, network, and per-AS protocol nodes,
// and originates the prefix at dest. bluePick customizes the origin's
// locked blue provider selection for STAMP (nil for random).
func buildInstance(proto Protocol, g *topology.Graph, params sim.Params, seed int64, dest topology.ASN, bluePick core.BluePicker) *instance {
	in := &instance{proto: proto, g: g, dest: dest}
	in.e = sim.NewEngine(params, seed)
	in.net = sim.NewNetwork(in.e, g)
	n := g.Len()
	switch proto {
	case ProtoBGP:
		in.bgpNodes = make([]*bgp.Node, n)
		for a := 0; a < n; a++ {
			in.bgpNodes[a] = bgp.NewNode(topology.ASN(a), g, in.e, in.net)
		}
		in.bgpNodes[dest].Originate()
	case ProtoRBGPNoRCI, ProtoRBGP:
		rci := proto == ProtoRBGP
		in.rbgpNodes = make([]*rbgp.Node, n)
		for a := 0; a < n; a++ {
			in.rbgpNodes[a] = rbgp.NewNode(topology.ASN(a), g, in.e, in.net, rci)
		}
		in.rbgpNodes[dest].Originate()
		in.rbgp = traffic.RBGPView{Nodes: in.rbgpNodes, Net: in.net}
	case ProtoSTAMP:
		in.stampNodes = make([]*core.Node, n)
		for a := 0; a < n; a++ {
			in.stampNodes[a] = core.NewNode(topology.ASN(a), g, in.e, in.net)
		}
		if bluePick != nil {
			in.stampNodes[dest].BluePick = bluePick
		}
		in.stampNodes[dest].Originate()
	}
	return in
}

// FailLink implements scenario.Executor.
func (in *instance) FailLink(a, b topology.ASN) error { return in.net.FailLink(a, b) }

// RestoreLink implements scenario.Executor.
func (in *instance) RestoreLink(a, b topology.ASN) error { return in.net.RestoreLink(a, b) }

// FailNode implements scenario.Executor.
func (in *instance) FailNode(a topology.ASN) error { in.net.FailNode(a); return nil }

// Withdraw implements scenario.Executor.
func (in *instance) Withdraw(d topology.ASN) error {
	switch in.proto {
	case ProtoBGP:
		in.bgpNodes[d].WithdrawOrigin()
	case ProtoRBGPNoRCI, ProtoRBGP:
		in.rbgpNodes[d].WithdrawOrigin()
	case ProtoSTAMP:
		in.stampNodes[d].WithdrawOrigin()
	}
	return nil
}

// setRouteEventHook installs fn as every node's OnRouteEvent callback.
func (in *instance) setRouteEventHook(fn func()) {
	for _, n := range in.bgpNodes {
		n.OnRouteEvent = fn
	}
	for _, n := range in.rbgpNodes {
		n.OnRouteEvent = fn
	}
	for _, n := range in.stampNodes {
		n.OnRouteEvent = fn
	}
}

// setTableChangeHook installs fn as every node's OnTableChange callback
// (fired only on real best-route changes, for convergence timing).
func (in *instance) setTableChangeHook(fn func()) {
	for _, n := range in.bgpNodes {
		n.OnTableChange = fn
	}
	for _, n := range in.rbgpNodes {
		n.OnTableChange = fn
	}
	for _, n := range in.stampNodes {
		n.OnTableChange = fn
	}
}

// classify runs the protocol-appropriate data-plane walker.
func (in *instance) classify() []forwarding.Result {
	n := in.g.Len()
	switch in.proto {
	case ProtoBGP:
		return forwarding.ClassifySingle(n, in.dest, func(v topology.ASN) (topology.ASN, bool) {
			return in.bgpNodes[v].NextHop()
		})
	case ProtoRBGPNoRCI, ProtoRBGP:
		in.primary = in.rbgp.Primaries(in.primary)
		in.walker.WalkRBGP(in.primary, int32(in.dest), &in.rbgp, &in.walk)
		out := make([]forwarding.Result, n)
		for a := range out {
			out[a] = forwarding.Result{Status: in.walk.Status[a], Hops: in.walk.Hops[a]}
		}
		return out
	default:
		return forwarding.ClassifyStamp(n, in.dest, stampView{in.stampNodes})
	}
}

// messageCounts sums update and withdrawal counts across all speakers.
func (in *instance) messageCounts() (updates, withdrawals int64) {
	for _, n := range in.bgpNodes {
		updates += n.Sp.UpdatesSent
		withdrawals += n.Sp.WithdrawalsSent
	}
	for _, n := range in.rbgpNodes {
		updates += n.Sp.UpdatesSent
		withdrawals += n.Sp.WithdrawalsSent
	}
	for _, n := range in.stampNodes {
		updates += n.Red.UpdatesSent + n.Blue.UpdatesSent
		withdrawals += n.Red.WithdrawalsSent + n.Blue.WithdrawalsSent
	}
	return updates, withdrawals
}

// stampView adapts the STAMP node slice to the forwarding walker.
type stampView struct{ nodes []*core.Node }

func (v stampView) NextHop(as topology.ASN, c bgp.Color) (topology.ASN, bool) {
	return v.nodes[as].NextHop(c)
}
func (v stampView) Unstable(as topology.ASN, c bgp.Color) bool {
	return v.nodes[as].Unstable(c)
}
func (v stampView) Preferred(as topology.ASN) bgp.Color {
	return v.nodes[as].Preferred()
}
