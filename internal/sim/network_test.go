package sim

import (
	"math/rand"
	"testing"

	"stamp/internal/topology"
)

// recorder is a test Node capturing everything delivered to it.
type recorder struct {
	msgs  []any
	froms []topology.ASN
	downs []topology.ASN
	ups   []topology.ASN
}

func (r *recorder) Recv(from topology.ASN, payload any) {
	r.froms = append(r.froms, from)
	r.msgs = append(r.msgs, payload)
}
func (r *recorder) LinkDown(nbr topology.ASN) { r.downs = append(r.downs, nbr) }
func (r *recorder) LinkUp(nbr topology.ASN)   { r.ups = append(r.ups, nbr) }

func pairNet(t *testing.T) (*Engine, *Network, *recorder, *recorder) {
	t.Helper()
	g := topology.NewGraph(2)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultParams(), 1)
	n := NewNetwork(e, g)
	a, b := &recorder{}, &recorder{}
	n.Register(0, a)
	n.Register(1, b)
	return e, n, a, b
}

func TestNetworkDelivery(t *testing.T) {
	e, n, a, b := pairNet(t)
	n.Send(0, 1, "hello")
	n.Send(1, 0, "world")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.msgs) != 1 || b.msgs[0] != "hello" || b.froms[0] != 0 {
		t.Errorf("b received %v from %v", b.msgs, b.froms)
	}
	if len(a.msgs) != 1 || a.msgs[0] != "world" {
		t.Errorf("a received %v", a.msgs)
	}
	if n.MessagesSent != 2 {
		t.Errorf("MessagesSent = %d, want 2", n.MessagesSent)
	}
}

func TestNetworkFIFOPerDirection(t *testing.T) {
	e, n, _, b := pairNet(t)
	for i := 0; i < 100; i++ {
		n.Send(0, 1, i)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.msgs) != 100 {
		t.Fatalf("delivered %d of 100", len(b.msgs))
	}
	for i, m := range b.msgs {
		if m.(int) != i {
			t.Fatalf("message %d delivered out of order (got %v)", i, m)
		}
	}
}

func TestNetworkNoSendToNonNeighbor(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultParams(), 1)
	n := NewNetwork(e, g)
	r := &recorder{}
	n.Register(2, r)
	n.Send(0, 2, "x")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.msgs) != 0 {
		t.Error("message delivered between non-neighbors")
	}
}

func TestNetworkFailLinkDropsInFlight(t *testing.T) {
	e, n, _, b := pairNet(t)
	n.Send(0, 1, "doomed")
	if err := n.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.msgs) != 0 {
		t.Error("in-flight message survived link failure")
	}
	if len(b.downs) != 1 || b.downs[0] != 0 {
		t.Errorf("b.downs = %v, want [0]", b.downs)
	}
	// Sends over a dead link are dropped silently.
	sent := n.MessagesSent
	n.Send(0, 1, "also doomed")
	if n.MessagesSent != sent {
		t.Error("send over dead link counted")
	}
}

func TestNetworkFailAndRestore(t *testing.T) {
	e, n, a, b := pairNet(t)
	if err := n.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(0, 1); err == nil {
		t.Error("double failure accepted")
	}
	if n.LinkUp(0, 1) {
		t.Error("link still up after failure")
	}
	if len(n.DownLinks()) != 1 {
		t.Errorf("DownLinks = %v", n.DownLinks())
	}
	if err := n.RestoreLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreLink(1, 0); err == nil {
		t.Error("double restore accepted")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.ups) != 1 || len(b.ups) != 1 {
		t.Errorf("ups = %v / %v, want one each", a.ups, b.ups)
	}
	if !n.LinkUp(0, 1) {
		t.Error("link down after restore")
	}
}

func TestNetworkFailNode(t *testing.T) {
	g := topology.NewGraph(4)
	for _, c := range []topology.ASN{1, 2, 3} {
		if err := g.AddProviderLink(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(DefaultParams(), 1)
	n := NewNetwork(e, g)
	recs := make([]*recorder, 4)
	for i := range recs {
		recs[i] = &recorder{}
		n.Register(topology.ASN(i), recs[i])
	}
	n.FailNode(0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if len(recs[i].downs) != 1 {
			t.Errorf("AS %d downs = %v, want [0]", i, recs[i].downs)
		}
	}
	if len(recs[0].downs) != 3 {
		t.Errorf("AS 0 downs = %v, want 3 entries", recs[0].downs)
	}
}

// TestLinkUpMatchesDownSet: through a random sequence of link
// failures, restores and node failures, LinkUp answers every ordered
// pair of ASes — adjacent or not, next to a failure or not — as the
// definition does: a topology link that is not in the down set.
func TestLinkUpMatchesDownSet(t *testing.T) {
	g, err := topology.GenerateDefault(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	links := g.Links()
	n := NewNetwork(NewEngine(DefaultParams(), 1), g)
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 300; step++ {
		switch l := links[rng.Intn(len(links))]; rng.Intn(8) {
		case 0:
			n.FailNode(l.A)
		case 1, 2, 3:
			_ = n.FailLink(l.A, l.B) // refused when already down
		default:
			_ = n.RestoreLink(l.B, l.A) // refused when not down
		}
		down := map[linkKey]bool{}
		for _, l := range n.DownLinks() {
			down[mkLink(l.A, l.B)] = true
		}
		for a := topology.ASN(0); int(a) < g.Len(); a++ {
			for b := topology.ASN(0); int(b) < g.Len(); b++ {
				want := g.Rel(a, b) != topology.RelNone && !down[mkLink(a, b)]
				if got := n.LinkUp(a, b); got != want {
					t.Fatalf("step %d: LinkUp(%d, %d) = %v, want %v (down: %v)", step, a, b, got, want, n.DownLinks())
				}
			}
		}
	}
	for len(n.DownLinks()) > 0 {
		l := n.DownLinks()[0]
		if err := n.RestoreLink(l.A, l.B); err != nil {
			t.Fatal(err)
		}
	}
	for a, c := range n.downAt {
		if c != 0 {
			t.Errorf("AS %d still counts %d failed links with none down", a, c)
		}
	}
}

func TestNetworkFailUnknownLink(t *testing.T) {
	_, n, _, _ := pairNet(t)
	if err := n.FailLink(0, 0); err == nil {
		t.Error("failing non-existent link accepted")
	}
}

func TestNetworkMsgHook(t *testing.T) {
	e, n, _, _ := pairNet(t)
	count := 0
	n.MsgHook = func(from, to topology.ASN, payload any) { count++ }
	n.Send(0, 1, "x")
	n.Send(1, 0, "y")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("hook saw %d messages, want 2", count)
	}
}
