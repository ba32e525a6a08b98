package traffic

import (
	"stamp/internal/bgp"
	"stamp/internal/core"
	"stamp/internal/rbgp"
	"stamp/internal/sim"
	"stamp/internal/topology"
)

// instance is a fully built simulation of one protocol on one topology
// with one destination: the one simulated instance behind both the loss
// curves (RunSim) and the transient trials of Figures 2–3
// (RunTransientTrial), with snapshot extraction and batched
// classification.
type instance struct {
	proto Protocol
	g     *topology.Graph
	e     *sim.Engine
	net   *sim.Network
	dest  topology.ASN

	bgpNodes   []*bgp.Node
	rbgpNodes  []*rbgp.Node
	stampNodes []*core.Node

	// Cost model and steering policy (nil without one).
	cost  LinkCost
	steer Steerer

	// Snapshot tables, reused across ticks: single holds BGP next hops
	// or R-BGP primaries, stamp the STAMP arms' state.
	walker Walker
	single []int32
	stamp  StampTables
	rbgp   RBGPView

	// dirty lists the ASes whose forwarding state may have moved since
	// the last snapshot, isDirty marks them. Every AS starts marked.
	dirty   []int32
	isDirty []bool

	// Steering scratch: forced color assignments and per-color walks.
	allRed, allBlue []uint8
	wr, wb          Walk
}

// newInstance constructs engine, network, and per-AS protocol nodes, and
// originates the prefix at dest. bluePick customizes STAMP's locked blue
// provider selection (nil for the random default).
func newInstance(proto Protocol, g *topology.Graph, params sim.Params, seed int64, dest topology.ASN, bluePick core.BluePicker) *instance {
	n := g.Len()
	in := &instance{proto: proto, g: g, dest: dest, isDirty: make([]bool, n)}
	for a := 0; a < n; a++ {
		in.mark(topology.ASN(a))
	}
	in.e = sim.NewEngine(params, seed)
	in.net = sim.NewNetwork(in.e, g)
	switch proto {
	case BGP:
		in.single = make([]int32, n)
		in.bgpNodes = make([]*bgp.Node, n)
		for a := 0; a < n; a++ {
			in.bgpNodes[a] = bgp.NewNode(topology.ASN(a), g, in.e, in.net)
		}
		in.bgpNodes[dest].Originate()
	case RBGPNoRCI, RBGP:
		rci := proto == RBGP
		in.single = make([]int32, n)
		in.rbgpNodes = make([]*rbgp.Node, n)
		for a := 0; a < n; a++ {
			in.rbgpNodes[a] = rbgp.NewNode(topology.ASN(a), g, in.e, in.net, rci)
		}
		in.rbgpNodes[dest].Originate()
		in.rbgp = RBGPView{Nodes: in.rbgpNodes, Net: in.net}
	case STAMP, STAMPSteer:
		// The steering arm runs STAMP's control plane unchanged; only
		// the data-plane color stamping differs (classify).
		in.stamp = StampTables{
			NextRed:      make([]int32, n),
			NextBlue:     make([]int32, n),
			UnstableRed:  make([]bool, n),
			UnstableBlue: make([]bool, n),
			Pref:         make([]uint8, n),
		}
		in.stampNodes = make([]*core.Node, n)
		for a := 0; a < n; a++ {
			in.stampNodes[a] = core.NewNode(topology.ASN(a), g, in.e, in.net)
		}
		if bluePick != nil {
			in.stampNodes[dest].BluePick = bluePick
		}
		in.stampNodes[dest].Originate()
	}
	// Markers go on after origination: every AS starts marked anyway.
	for a := 0; a < n; a++ {
		route, _ := in.hooks(a)
		*route = in.marker(a)
	}
	return in
}

// hooks returns AS a's node callbacks: OnRouteEvent, which fires
// whenever its forwarding may have moved, and OnTableChange, which fires
// on best-route changes only.
func (in *instance) hooks(a int) (route, table *func()) {
	switch in.proto {
	case BGP:
		return &in.bgpNodes[a].OnRouteEvent, &in.bgpNodes[a].OnTableChange
	case RBGPNoRCI, RBGP:
		return &in.rbgpNodes[a].OnRouteEvent, &in.rbgpNodes[a].OnTableChange
	default:
		return &in.stampNodes[a].OnRouteEvent, &in.stampNodes[a].OnTableChange
	}
}

// watch adds observers to every node: route runs after the snapshot
// marker on each route event, table on each best-route change. RunSim
// never calls it, so its per-event path is the bare marker.
func (in *instance) watch(route, table func()) {
	for a := 0; a < in.g.Len(); a++ {
		r, t := in.hooks(a)
		mark := in.marker(a)
		*r = func() { mark(); route() }
		*t = table
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

// setCost attaches the link-quality model to the walkers.
func (in *instance) setCost(c LinkCost) {
	in.cost = c
	in.walker.Cost = c
}

// marker returns AS a's OnRouteEvent hook, which marks it for the next
// snapshot.
func (in *instance) marker(a int) func() {
	return func() { in.mark(topology.ASN(a)) }
}

// mark records that a's forwarding state may have moved.
func (in *instance) mark(a topology.ASN) {
	if !in.isDirty[a] {
		in.isDirty[a] = true
		in.dirty = append(in.dirty, int32(a))
	}
}

// snapshot brings the forwarding tables up to date with the nodes by
// re-reading the rows of the ASes marked since the last call (all of
// them on the first). An AS's row reads its nodes' best routes, their instability flags and
// the liveness of its links to the best routes' next hops. The nodes'
// OnRouteEvent hooks fire on every best-route change, settle-timer clear
// and link notification, and the instance's own link operations mark
// both endpoints the moment liveness flips, so an unmarked row is
// current.
func (in *instance) snapshot() {
	for _, a := range in.dirty {
		in.snapshotAS(int(a))
		in.isDirty[a] = false
	}
	in.dirty = in.dirty[:0]
}

// snapshotAS refreshes AS a's table row.
func (in *instance) snapshotAS(a int) {
	switch in.proto {
	case BGP:
		in.single[a] = nextHop32(in.bgpNodes[a].NextHop())
	case RBGPNoRCI, RBGP:
		in.single[a] = nextHop32(in.rbgpNodes[a].Primary())
	case STAMP, STAMPSteer:
		node := in.stampNodes[a]
		red := nextHop32(node.NextHop(bgp.ColorRed))
		blue := nextHop32(node.NextHop(bgp.ColorBlue))
		ur, ub := node.Unstable(bgp.ColorRed), node.Unstable(bgp.ColorBlue)
		t := &in.stamp
		t.NextRed[a], t.NextBlue[a] = red, blue
		t.UnstableRed[a], t.UnstableBlue[a] = ur, ub
		t.Pref[a] = uint8(core.PreferredOf(red >= 0, blue >= 0, ur, ub))
	}
}

// classify samples the current forwarding state into out through the
// flat batched walkers, synchronously while the engine is paused. BGP
// and STAMP snapshot everything a walk reads into tables; R-BGP
// snapshots its primaries and leaves failover paths and link liveness
// behind the Failover callbacks, which a walk reaches only where
// primary forwarding ends. STAMPSteer classifies the same STAMP tables
// but stamps the steering policy's current color assignment on locally
// sourced packets in place of the nodes' preference.
func (in *instance) classify(out *Walk) {
	in.snapshot()
	switch in.proto {
	case BGP:
		in.walker.WalkSingle(in.single, int32(in.dest), out)
	case RBGPNoRCI, RBGP:
		in.walker.WalkRBGP(in.single, int32(in.dest), &in.rbgp, out)
	case STAMP:
		in.walker.WalkStamp(in.stamp, int32(in.dest), out)
	case STAMPSteer:
		t := in.stamp
		t.Pref = in.steer.Colors()
		in.walker.WalkStamp(t, int32(in.dest), out)
	}
}

// forcedWalks classifies the STAMP tables twice, with every source
// locked to red and then to blue, into in.wr/in.wb — the per-color path
// measurements the steering policy samples.
func (in *instance) forcedWalks() {
	in.snapshot()
	n := in.g.Len()
	if in.allRed == nil {
		in.allRed = make([]uint8, n)
		in.allBlue = make([]uint8, n)
		for i := range in.allBlue {
			in.allBlue[i] = 1
		}
	}
	t := in.stamp
	t.Pref = in.allRed
	in.walker.WalkStamp(t, int32(in.dest), &in.wr)
	t.Pref = in.allBlue
	in.walker.WalkStamp(t, int32(in.dest), &in.wb)
}

// steerStep feeds the policy one tick of forced per-color measurements;
// the policy mutates its color assignment for the next tick's classify.
// rewalk is false when the engine executed nothing since the last
// forced walks: they are functions of the tables and the cost model,
// which change only inside engine events, so the previous ones stand.
func (in *instance) steerStep(rewalk bool) {
	if rewalk {
		in.forcedWalks()
	}
	in.steer.Step(in.wr.LatMs, in.wr.LossP, in.wb.LatMs, in.wb.LossP)
}

// nextHop32 flattens a (next hop, ok) pair to the walker encoding.
func nextHop32(nh topology.ASN, ok bool) int32 {
	if !ok {
		return -1
	}
	return int32(nh)
}

// RBGPView adapts simulated R-BGP nodes to Walker.WalkRBGP as its
// Failover: the table half of their forwarding state, the primary next
// hops, is snapshotted per AS by instance.snapshotAS.
type RBGPView struct {
	Nodes []*rbgp.Node
	Net   *sim.Network
}

// Deflect implements Failover.
func (v RBGPView) Deflect(as, prev topology.ASN) []topology.ASN {
	return v.Nodes[as].Deflect(prev)
}

// LinkUp implements Failover.
func (v RBGPView) LinkUp(a, b topology.ASN) bool { return v.Net.LinkUp(a, b) }
