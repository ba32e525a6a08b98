// Package core implements STAMP, the SelecTive Announcement Multi-Process
// routing protocol that is the paper's contribution. Every AS runs two
// nearly unmodified BGP processes — red and blue — whose routes are kept
// complementary (downhill node disjoint) purely through selective route
// announcements to providers:
//
//   - A multi-homed origin announces its prefix to exactly one "blue
//     provider" through the blue process, with the Lock attribute set, and
//     to all remaining providers through the red process only.
//   - A transit AS holding a locked blue route must propagate a locked
//     blue announcement to exactly one of its providers; red announcements
//     take precedence at all other providers; providers that would
//     otherwise receive nothing get an unlocked blue announcement.
//   - Announcements to peers and customers are unrestricted (valley-free
//     export still applies, per process).
//
// Single-provider ASes announce both colors to their sole provider, which
// defers the red/blue split to the first multi-homed (direct or indirect)
// provider, as in footnote 4 of the paper.
//
// The ET (Event Type) attribute rides on every update (Msg.CausedByLoss);
// the data plane switches a packet to the other color's route — at most
// once per packet — when the preferred process is unstable (§5).
package core

import (
	"math/rand"

	"stamp/internal/bgp"
	"stamp/internal/sim"
	"stamp/internal/topology"
)

// Network is the message fabric a STAMP node attaches to: it delivers
// routing messages between ASes and answers link-state queries. The
// discrete-event simulator's *sim.Network implements it natively; the
// live emulation (internal/emu) implements it over real netd sessions,
// which is how the exact same protocol logic runs in both worlds and why
// sim-vs-live RIB diffs are meaningful.
type Network interface {
	// Send queues a routing message from one AS to a neighbor.
	Send(from, to topology.ASN, payload any)
	// Register attaches node as the protocol instance of AS a.
	Register(a topology.ASN, node sim.Node)
	// LinkUp reports whether the link between a and b is operational.
	LinkUp(a, b topology.ASN) bool
}

// BluePicker chooses the locked blue provider among candidates. The
// default picks uniformly at random, matching §6.1's baseline; the
// "intelligent" variant used by the Figure 1 extension is provided by the
// disjoint package.
type BluePicker func(rng *rand.Rand, candidates []topology.ASN) topology.ASN

// RandomBluePicker returns the uniform random picker.
func RandomBluePicker() BluePicker {
	return func(rng *rand.Rand, candidates []topology.ASN) topology.ASN {
		return candidates[rng.Intn(len(candidates))]
	}
}

// FirstBluePicker always picks the first (lowest-index) candidate. It is
// fully deterministic — no RNG draw at all — which is what the live
// emulation and its simulator reference runs share so that both sides
// make identical lock choices.
func FirstBluePicker() BluePicker {
	return func(_ *rand.Rand, candidates []topology.ASN) topology.ASN {
		return candidates[0]
	}
}

// FixedBluePicker always prefers the given provider when it is a valid
// candidate (used for intelligent selection and in tests).
func FixedBluePicker(preferred topology.ASN) BluePicker {
	return func(rng *rand.Rand, candidates []topology.ASN) topology.ASN {
		for _, c := range candidates {
			if c == preferred {
				return c
			}
		}
		return candidates[rng.Intn(len(candidates))]
	}
}

// Node is one STAMP-speaking AS: red and blue processes plus the selective
// announcement coordinator. It implements sim.Node.
type Node struct {
	Self topology.ASN
	G    *topology.Graph
	E    *sim.Engine
	Net  Network

	Red  *bgp.Speaker
	Blue *bgp.Speaker

	// BluePick selects the locked blue provider; defaults to uniform
	// random.
	BluePick BluePicker
	// DisableLock turns off the Lock mechanism entirely (ablation: blue
	// announcements to providers then happen only where red is absent,
	// and the guaranteed blue path disappears).
	DisableLock bool

	// OnRouteEvent fires whenever forwarding behavior may have changed.
	OnRouteEvent func()
	// OnTableChange fires only on actual best-route changes in either
	// process.
	OnTableChange func()

	lockedProvider topology.ASN // sticky choice, -1 when unset
	// lockMoved records that the locked provider had to be re-picked after
	// a failure. From then on the red announcement is kept at the new
	// locked provider too: yanking red there would perturb the red plane
	// at the very moment the blue plane is re-rooting, destroying the
	// complementarity that protects the single-event case. The overlap
	// trades a little future disjointness for stability now.
	lockMoved bool
	lossRed   bool
	lossBlue  bool
	// assigned remembers which color each provider currently receives.
	// Assignments are sticky: red precedence decides the first
	// assignment, but a provider is not flipped between colors just
	// because the red path's contents changed — flip-flopping would
	// inject withdrawals into both planes on every transient.
	assigned map[topology.ASN]int8 // 0 none, 1 red, 2 blue
	// suppressRecompute holds back announcement recomputation while the
	// two origin routes are installed together.
	suppressRecompute bool
}

// NewNode builds a STAMP node for AS self and registers it with the
// network.
func NewNode(self topology.ASN, g *topology.Graph, e *sim.Engine, net Network) *Node {
	n := &Node{
		Self:           self,
		G:              g,
		E:              e,
		Net:            net,
		BluePick:       RandomBluePicker(),
		lockedProvider: -1,
		assigned:       make(map[topology.ASN]int8),
	}
	send := func(to topology.ASN, m bgp.Msg) { net.Send(self, to, m) }
	n.Red = bgp.NewSpeaker(self, bgp.ColorRed, g, e, send)
	n.Blue = bgp.NewSpeaker(self, bgp.ColorBlue, g, e, send)
	n.Red.OnBestChange = func(loss bool) { n.lossRed = loss; n.recomputeDesired(); n.tableChanged() }
	n.Blue.OnBestChange = func(loss bool) { n.lossBlue = loss; n.recomputeDesired(); n.tableChanged() }
	n.Red.OnStabilize = n.notify
	n.Blue.OnStabilize = n.notify
	net.Register(self, n)
	return n
}

// Originate starts announcing the destination prefix from this AS in both
// processes. The two originations are atomic with respect to the
// selective announcement rules: without this, the red process would
// briefly announce to the eventual locked blue provider before the blue
// origin exists, generating a spurious announce/withdraw pair.
func (n *Node) Originate() {
	n.suppressRecompute = true
	n.Red.Originate()
	n.suppressRecompute = false
	n.Blue.Originate()
}

// WithdrawOrigin withdraws the locally originated prefix from both
// processes.
func (n *Node) WithdrawOrigin() {
	n.Red.StopOriginating()
	n.Blue.StopOriginating()
}

// Speaker returns the process of the given color.
func (n *Node) Speaker(c bgp.Color) *bgp.Speaker {
	if c == bgp.ColorRed {
		return n.Red
	}
	return n.Blue
}

// Recv implements sim.Node, dispatching by message color.
func (n *Node) Recv(from topology.ASN, payload any) {
	m, ok := payload.(bgp.Msg)
	if !ok || m.Failover {
		return
	}
	n.Speaker(m.Color).HandleMsg(from, m)
}

// LinkDown implements sim.Node.
func (n *Node) LinkDown(nbr topology.ASN) {
	if n.lockedProvider == nbr {
		n.lockedProvider = -1
		n.lockMoved = true
	}
	n.Red.PeerDown(nbr)
	n.Blue.PeerDown(nbr)
	// Even if neither best route changed, announcements may need
	// redistribution (e.g. the locked provider vanished).
	n.recomputeDesired()
	n.notify()
}

// LinkUp implements sim.Node.
func (n *Node) LinkUp(nbr topology.ASN) {
	n.Red.PeerUp(nbr)
	n.Blue.PeerUp(nbr)
	n.recomputeDesired()
	n.notify()
}

func (n *Node) notify() {
	if n.OnRouteEvent != nil {
		n.OnRouteEvent()
	}
}

func (n *Node) tableChanged() {
	if n.OnTableChange != nil {
		n.OnTableChange()
	}
	n.notify()
}

// exportableUp reports whether r may be announced to a provider under
// valley-free policy: only originated or customer-learned routes climb.
func exportableUp(r *bgp.Route) bool {
	return r != nil && (r.Origin || r.FromRel == topology.RelCustomer)
}

// lockObligation reports whether the blue process must propagate a locked
// announcement to one provider: it originates the prefix, its best blue
// route carries the Lock bit, or any customer-learned blue route does
// (the lock chain must not break when the best blue route happens to be a
// different customer route).
func (n *Node) lockObligation() bool {
	if n.DisableLock {
		return false
	}
	b := n.Blue.Best()
	if b == nil || !exportableUp(b) {
		return false
	}
	if b.Origin || b.Lock {
		return true
	}
	locked := false
	n.Blue.RibInAll(func(_ topology.ASN, r *bgp.Route) {
		if r.Lock && r.FromRel == topology.RelCustomer {
			locked = true
		}
	})
	return locked
}

// chooseLockedProvider returns the sticky locked blue provider, re-picking
// when the previous choice became invalid. Valid candidates are providers
// with a live session that do not appear on the blue path (announcing to
// them would be dropped by loop detection).
func (n *Node) chooseLockedProvider(bestBlue *bgp.Route) topology.ASN {
	var candidates []topology.ASN
	for _, p := range n.G.Providers(n.Self) {
		if !n.Blue.SessionUp(p) {
			continue
		}
		if bestBlue.ContainsAS(p) {
			continue
		}
		candidates = append(candidates, p)
	}
	if len(candidates) == 0 {
		return -1
	}
	for _, c := range candidates {
		if c == n.lockedProvider {
			return c
		}
	}
	n.lockedProvider = n.BluePick(n.E.Rand(), candidates)
	return n.lockedProvider
}

// recomputeDesired applies STAMP's selective announcement rules to both
// processes for every neighbor.
func (n *Node) recomputeDesired() {
	if n.suppressRecompute {
		return
	}
	bestR, bestB := n.Red.Best(), n.Blue.Best()
	providers := n.G.Providers(n.Self)
	var adv adverts

	// Providers: the selective part.
	switch {
	case len(providers) == 1:
		// Single-provider AS: both colors climb the only available link;
		// the red/blue split happens at the first multi-homed provider.
		p := providers[0]
		n.setDesired(&adv, n.Red, 0, bestR, false, n.lossRed)
		lock := n.lockObligation() && !bestB.ContainsAS(p)
		n.setDesired(&adv, n.Blue, 0, bestB, lock, n.lossBlue)
	case len(providers) > 1:
		lp := topology.ASN(-1)
		if n.lockObligation() {
			lp = n.chooseLockedProvider(bestB)
		}
		for i, p := range providers {
			redOK := exportableUp(bestR) && !bestR.ContainsAS(p)
			blueOK := exportableUp(bestB) && !bestB.ContainsAS(p)
			if p == lp {
				n.setDesired(&adv, n.Blue, i, bestB, true, n.lossBlue)
				if n.lockMoved && redOK {
					// Re-picked after a failure: keep red here so the red
					// plane stays untouched while blue re-roots.
					n.setDesired(&adv, n.Red, i, bestR, false, n.lossRed)
				} else {
					// Steady state: the locked blue provider receives blue
					// only.
					n.Red.SetDesiredAt(i, bgp.Out{})
				}
				n.assigned[p] = 2
				continue
			}
			// Red takes precedence elsewhere; a provider that cannot
			// receive red gets an unlocked blue announcement so that red
			// and blue are never announced to the same provider. Sticky:
			// keep the previous color while it remains announceable.
			use := int8(0)
			switch {
			case n.assigned[p] == 1 && redOK:
				use = 1
			case n.assigned[p] == 2 && blueOK:
				use = 2
			case redOK:
				use = 1
			case blueOK:
				use = 2
			}
			switch use {
			case 1:
				n.setDesired(&adv, n.Red, i, bestR, false, n.lossRed)
				n.Blue.SetDesiredAt(i, bgp.Out{})
			case 2:
				n.Red.SetDesiredAt(i, bgp.Out{})
				n.setDesired(&adv, n.Blue, i, bestB, false, n.lossBlue)
			default:
				n.Red.SetDesiredAt(i, bgp.Out{})
				n.Blue.SetDesiredAt(i, bgp.Out{})
			}
			n.assigned[p] = use
		}
	}

	// Peers and customers, which follow the providers in the speakers'
	// neighbor lists: both colors propagate freely (valley-free export
	// still applies inside setDesiredLateral via CanExport).
	for i := len(providers); i < len(n.Red.Neighbors()); i++ {
		n.setDesiredLateral(&adv, n.Red, i, bestR, n.lossRed)
		n.setDesiredLateral(&adv, n.Blue, i, bestB, n.lossBlue)
	}
}

// adverts memoizes one recomputeDesired pass's advertisements by color
// and Lock bit: each color advertises its one best route, so a pass
// builds at most four routes and every neighbor shares them.
type adverts [2][2]*bgp.Route

// of returns the advertisement of speaker sp's best route r.
func (a *adverts) of(self topology.ASN, sp *bgp.Speaker, r *bgp.Route, lock bool) *bgp.Route {
	l := 0
	if lock {
		l = 1
	}
	if a[sp.Color][l] == nil {
		a[sp.Color][l] = bgp.Advertised(self, r, lock, sp.Color)
	}
	return a[sp.Color][l]
}

// setDesired programs an announcement of sp's best route r to its i-th
// neighbor, a provider (nil/unexportable routes withdraw).
func (n *Node) setDesired(adv *adverts, sp *bgp.Speaker, i int, r *bgp.Route, lock, loss bool) {
	if !exportableUp(r) || r.ContainsAS(sp.Neighbors()[i]) {
		sp.SetDesiredAt(i, bgp.Out{})
		return
	}
	sp.SetDesiredAt(i, bgp.Out{Route: adv.of(n.Self, sp, r, lock), Loss: loss})
}

// setDesiredLateral programs an announcement of sp's best route r to
// its i-th neighbor, a peer or customer, under plain valley-free export;
// the Lock bit never travels sideways or down.
func (n *Node) setDesiredLateral(adv *adverts, sp *bgp.Speaker, i int, r *bgp.Route, loss bool) {
	if r == nil || !bgp.CanExport(r, sp.NeighborRel(i)) || r.ContainsAS(sp.Neighbors()[i]) {
		sp.SetDesiredAt(i, bgp.Out{})
		return
	}
	sp.SetDesiredAt(i, bgp.Out{Route: adv.of(n.Self, sp, r, false), Loss: loss})
}

// LockedProvider exposes the current sticky locked blue provider (-1 when
// unset), for tests and analysis.
func (n *Node) LockedProvider() topology.ASN { return n.lockedProvider }

// NextHop returns the forwarding next hop of the given color, honoring
// link state. Origin nodes return themselves.
func (n *Node) NextHop(c bgp.Color) (topology.ASN, bool) {
	best := n.Speaker(c).Best()
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

// Unstable reports whether the given color's process is currently flagged
// unstable (lost its route or saw an ET=0 update affecting its best).
func (n *Node) Unstable(c bgp.Color) bool {
	sp := n.Speaker(c)
	if sp.Best() == nil {
		return true
	}
	if !sp.Best().Origin && !n.Net.LinkUp(n.Self, sp.Best().From) {
		return true
	}
	return sp.Unstable
}

// Preferred returns the color a packet originated at this AS starts with:
// a stable process with a route, falling back to any process with a
// route.
func (n *Node) Preferred() bgp.Color {
	_, redOK := n.NextHop(bgp.ColorRed)
	_, blueOK := n.NextHop(bgp.ColorBlue)
	return PreferredOf(redOK, blueOK, n.Unstable(bgp.ColorRed), n.Unstable(bgp.ColorBlue))
}

// PreferredOf is the rule behind Preferred on values already read:
// whether each color has a usable next hop and whether it is flagged
// unstable. It picks the first color with a usable, stable route, else
// the first with a usable one, else red.
func PreferredOf(redOK, blueOK, unstableRed, unstableBlue bool) bgp.Color {
	switch {
	case redOK && !unstableRed:
		return bgp.ColorRed
	case blueOK && !unstableBlue:
		return bgp.ColorBlue
	case redOK:
		return bgp.ColorRed
	case blueOK:
		return bgp.ColorBlue
	}
	return bgp.ColorRed
}
