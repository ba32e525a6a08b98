package bgp

import (
	"testing"
	"time"

	"stamp/internal/sim"
	"stamp/internal/topology"
)

// speakerRig wires one Speaker on a 3-AS star (0 provider of 1, 2 peer of
// 1) with a captured outbox.
type speakerRig struct {
	g    *topology.Graph
	e    *sim.Engine
	sp   *Speaker
	sent []struct {
		to topology.ASN
		m  Msg
	}
}

func newSpeakerRig(t *testing.T, mrai bool) *speakerRig {
	t.Helper()
	g := topology.NewGraph(3)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeerLink(1, 2); err != nil {
		t.Fatal(err)
	}
	p := sim.DefaultParams()
	p.MRAIEnabled = mrai
	rig := &speakerRig{g: g, e: sim.NewEngine(p, 1)}
	rig.sp = NewSpeaker(1, ColorRed, g, rig.e, func(to topology.ASN, m Msg) {
		rig.sent = append(rig.sent, struct {
			to topology.ASN
			m  Msg
		}{to, m})
	})
	return rig
}

func route(path ...topology.ASN) *Route {
	return &Route{Path: path, Color: ColorRed}
}

func TestSpeakerSelectsBest(t *testing.T) {
	rig := newSpeakerRig(t, false)
	// Provider route from 0 (pref 80), then peer route from 2 (pref 90).
	rig.sp.HandleMsg(0, Msg{Route: route(0, 9)})
	if b := rig.sp.Best(); b == nil || b.From != 0 {
		t.Fatalf("best = %v, want via 0", b)
	}
	rig.sp.HandleMsg(2, Msg{Route: route(2, 9)})
	if b := rig.sp.Best(); b == nil || b.From != 2 {
		t.Fatalf("best = %v, want peer route via 2", b)
	}
}

func TestSpeakerLoopRejection(t *testing.T) {
	rig := newSpeakerRig(t, false)
	rig.sp.HandleMsg(0, Msg{Route: route(0, 1, 9)}) // contains self (1)
	if rig.sp.Best() != nil {
		t.Error("looped route installed")
	}
	// A looped update also acts as implicit withdrawal.
	rig.sp.HandleMsg(0, Msg{Route: route(0, 9)})
	rig.sp.HandleMsg(0, Msg{Route: route(0, 1, 9)})
	if rig.sp.Best() != nil {
		t.Error("looped update did not withdraw previous route")
	}
}

func TestSpeakerWithdraw(t *testing.T) {
	rig := newSpeakerRig(t, false)
	rig.sp.HandleMsg(0, Msg{Route: route(0, 9)})
	rig.sp.HandleMsg(0, Msg{Withdraw: true, Color: ColorRed})
	if rig.sp.Best() != nil {
		t.Error("route survived withdrawal")
	}
	if !rig.sp.Unstable {
		t.Error("withdrawal should flag instability")
	}
}

func TestSpeakerIgnoresWrongColor(t *testing.T) {
	rig := newSpeakerRig(t, false)
	rig.sp.HandleMsg(0, Msg{Route: &Route{Path: []topology.ASN{0, 9}, Color: ColorBlue}, Color: ColorBlue})
	if rig.sp.Best() != nil {
		t.Error("blue message accepted by red speaker")
	}
}

func TestSpeakerOriginateWins(t *testing.T) {
	rig := newSpeakerRig(t, false)
	rig.sp.HandleMsg(2, Msg{Route: route(2, 9)})
	rig.sp.Originate()
	if b := rig.sp.Best(); b == nil || !b.Origin {
		t.Fatalf("best = %v, want originated route", b)
	}
	rig.sp.StopOriginating()
	if b := rig.sp.Best(); b == nil || b.Origin {
		t.Fatalf("best = %v, want learned route after withdrawal of origin", b)
	}
}

func TestSpeakerPeerDownLosesRoutes(t *testing.T) {
	rig := newSpeakerRig(t, false)
	rig.sp.HandleMsg(0, Msg{Route: route(0, 9)})
	rig.sp.PeerDown(0)
	if rig.sp.Best() != nil {
		t.Error("route survived session teardown")
	}
	if rig.sp.SessionUp(0) {
		t.Error("session still up")
	}
	// Messages to a down session are not sent.
	rig.sent = nil
	rig.sp.SetDesired(0, Out{Route: route(1, 9)})
	if len(rig.sent) != 0 {
		t.Errorf("sent %d messages over a down session", len(rig.sent))
	}
	// PeerUp replays the desired announcement.
	rig.sp.PeerUp(0)
	if _, err := rig.e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rig.sent) != 1 || rig.sent[0].to != 0 {
		t.Fatalf("sent = %v, want one replayed announcement to 0", rig.sent)
	}
}

func TestSpeakerWithdrawalImmediateMRAIPacesUpdates(t *testing.T) {
	rig := newSpeakerRig(t, true)
	rig.sp.SetDesired(0, Out{Route: route(1, 9)})
	if len(rig.sent) != 1 {
		t.Fatalf("first announcement not immediate (sent=%d)", len(rig.sent))
	}
	// A different route while the MRAI timer runs must be held back.
	rig.sp.SetDesired(0, Out{Route: route(1, 8)})
	if len(rig.sent) != 1 {
		t.Fatal("second announcement not paced by MRAI")
	}
	// A withdrawal goes out immediately regardless.
	rig.sp.SetDesired(0, Out{})
	if len(rig.sent) != 2 || !rig.sent[1].m.Withdraw {
		t.Fatalf("withdrawal was delayed: %v", rig.sent)
	}
	// Re-announce: still inside MRAI, so queued until expiry.
	rig.sp.SetDesired(0, Out{Route: route(1, 7)})
	if len(rig.sent) != 2 {
		t.Fatal("announcement during MRAI window not held")
	}
	if _, err := rig.e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rig.sent) != 3 {
		t.Fatalf("queued announcement not flushed at MRAI expiry: %v", rig.sent)
	}
	if got := rig.sent[2].m.Route.Path[1]; got != 7 {
		t.Errorf("flushed route = %v, want latest desired (…7)", rig.sent[2].m.Route)
	}
}

func TestSpeakerDuplicateSuppression(t *testing.T) {
	rig := newSpeakerRig(t, false)
	r := route(1, 9)
	rig.sp.SetDesired(0, Out{Route: r})
	if _, err := rig.e.Run(); err != nil {
		t.Fatal(err)
	}
	n := len(rig.sent)
	rig.sp.SetDesired(0, Out{Route: r.Clone()})
	if _, err := rig.e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rig.sent) != n {
		t.Error("identical announcement re-sent")
	}
	// Withdrawing nothing sends nothing.
	rig.sp.SetDesired(2, Out{})
	if len(rig.sent) != n {
		t.Error("withdrawal sent for never-announced route")
	}
}

func TestSpeakerCauseBypassesMRAI(t *testing.T) {
	rig := newSpeakerRig(t, true)
	cause := &Cause{A: 5, B: 6}
	rig.sp.SetDesired(0, Out{Route: route(1, 9)})
	rig.sp.SetDesired(0, Out{Route: route(1, 8), Cause: cause})
	if len(rig.sent) != 2 {
		t.Fatalf("root-caused update paced by MRAI (sent=%d)", len(rig.sent))
	}
	if rig.sent[1].m.RootCause != cause {
		t.Error("root cause not attached")
	}
}

func TestSpeakerUnstableSettles(t *testing.T) {
	p := sim.DefaultParams()
	p.SettleDelay = time.Second
	g := topology.NewGraph(2)
	if err := g.AddProviderLink(1, 0); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p, 1)
	sp := NewSpeaker(1, ColorRed, g, e, func(topology.ASN, Msg) {})
	sp.HandleMsg(0, Msg{Route: route(0, 9)})
	sp.HandleMsg(0, Msg{Route: route(0, 8, 9), CausedByLoss: true})
	if !sp.Unstable {
		t.Fatal("loss-caused change did not set Unstable")
	}
	stabilized := false
	sp.OnStabilize = func() { stabilized = true }
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sp.Unstable || !stabilized {
		t.Error("Unstable did not settle after quiet period")
	}
}

func TestSpeakerOnBestChangeLossFlag(t *testing.T) {
	rig := newSpeakerRig(t, false)
	var losses []bool
	rig.sp.OnBestChange = func(loss bool) { losses = append(losses, loss) }
	rig.sp.HandleMsg(0, Msg{Route: route(0, 9)})                        // gain
	rig.sp.HandleMsg(0, Msg{Route: route(0, 8, 9), CausedByLoss: true}) // loss-caused change
	rig.sp.HandleMsg(0, Msg{Withdraw: true, Color: ColorRed})           // loss
	want := []bool{false, true, true}
	if len(losses) != len(want) {
		t.Fatalf("losses = %v, want %v", losses, want)
	}
	for i := range want {
		if losses[i] != want[i] {
			t.Fatalf("losses = %v, want %v", losses, want)
		}
	}
}

// SetDesired is SetDesiredAt addressed by neighbor ASN.
func (s *Speaker) SetDesired(nbr topology.ASN, o Out) {
	if i := s.index(nbr); i >= 0 {
		s.SetDesiredAt(i, o)
	}
}
