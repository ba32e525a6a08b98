package netd

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"stamp/internal/topology"
	"stamp/internal/wire"
)

// pipeSessions wires two sessions over net.Pipe and runs them.
func pipeSessions(t *testing.T, a, b SessionConfig) (*Session, *Session) {
	t.Helper()
	ca, cb := net.Pipe()
	sa, sb := NewSession(a, ca), NewSession(b, cb)
	go func() { _ = sa.Run() }()
	go func() { _ = sb.Run() }()
	return sa, sb
}

func waitState(t *testing.T, s *Session, want SessionState) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session stuck in %v, want %v", s.State(), want)
}

func TestSessionHandshake(t *testing.T) {
	sa, sb := pipeSessions(t,
		SessionConfig{LocalAS: 64500, RouterID: 1, Color: 0, HoldTime: time.Second},
		SessionConfig{LocalAS: 64501, RouterID: 2, Color: 0, HoldTime: time.Second},
	)
	waitState(t, sa, StateEstablished)
	waitState(t, sb, StateEstablished)
	if p := sa.Peer(); p == nil || p.AS != 64501 {
		t.Errorf("a's peer = %+v, want AS 64501", p)
	}
	_ = sa.Close()
	waitState(t, sb, StateClosed)
}

func TestSessionColorMismatch(t *testing.T) {
	sa, sb := pipeSessions(t,
		SessionConfig{LocalAS: 64500, RouterID: 1, Color: 0, HoldTime: time.Second},
		SessionConfig{LocalAS: 64501, RouterID: 2, Color: 1, HoldTime: time.Second},
	)
	waitState(t, sa, StateClosed)
	waitState(t, sb, StateClosed)
}

func TestSessionUpdateExchange(t *testing.T) {
	got := make(chan *wire.Update, 1)
	sa, sb := pipeSessions(t,
		SessionConfig{LocalAS: 64500, RouterID: 1, HoldTime: time.Second},
		SessionConfig{LocalAS: 64501, RouterID: 2, HoldTime: time.Second,
			OnUpdate: func(_ *Session, u *wire.Update) { got <- u }},
	)
	waitState(t, sa, StateEstablished)
	waitState(t, sb, StateEstablished)
	u := &wire.Update{
		Attrs: wire.Attrs{ASPath: []uint16{64500}, Lock: true, HasET: true, ET: 0},
		NLRI:  []wire.Prefix{wire.MustPrefix("10.0.0.0/8")},
	}
	if err := sa.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if !r.Attrs.Lock || !r.Attrs.HasET || r.Attrs.ET != 0 {
			t.Errorf("STAMP attributes lost in flight: %+v", r.Attrs)
		}
		if len(r.NLRI) != 1 || r.NLRI[0].String() != "10.0.0.0/8" {
			t.Errorf("NLRI = %v", r.NLRI)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("update not delivered")
	}
	_ = sa.Close()
}

func TestSessionHoldTimer(t *testing.T) {
	// A peer that never sends keepalives must be declared dead within
	// roughly the hold time. Build one real session against a manual
	// handshake that then goes silent.
	ca, cb := net.Pipe()
	s := NewSession(SessionConfig{LocalAS: 64500, RouterID: 1, HoldTime: 300 * time.Millisecond}, ca)
	errCh := make(chan error, 1)
	go func() { errCh <- s.Run() }()

	// Manual peer: perform the handshake, then stay silent.
	go func() {
		peer := NewSession(SessionConfig{LocalAS: 64501, RouterID: 2, HoldTime: time.Hour}, cb)
		_ = peer // handshake manually instead:
		_ = peer.write(wire.NewOpen(64501, 3600, 2, 0))
		if _, err := peer.read(); err != nil {
			return
		}
		_ = peer.write(&wire.Keepalive{})
		if _, err := peer.read(); err != nil {
			return
		}
		// Silence: drain reads so writes from s don't block on the pipe,
		// but never send again.
		for {
			if _, err := peer.read(); err != nil {
				return
			}
		}
	}()

	select {
	case err := <-errCh:
		if err == nil {
			t.Error("silent peer not detected")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hold timer never fired")
	}
}

func TestSendUpdateBeforeEstablished(t *testing.T) {
	ca, _ := net.Pipe()
	s := NewSession(SessionConfig{LocalAS: 1, RouterID: 1}, ca)
	if err := s.SendUpdate(&wire.Update{}); err == nil {
		t.Error("update accepted before establishment")
	}
}

// TestSpeakersPropagate wires three speakers over real TCP in the chain
// customer 64512 -> provider 64513 -> provider 64514 and checks that an
// originated prefix propagates with STAMP attributes intact.
func TestSpeakersPropagate(t *testing.T) {
	logf := t.Logf
	a := NewSpeaker(SpeakerConfig{AS: 64512, RouterID: 1, Color: 1, Logf: logf})
	b := NewSpeaker(SpeakerConfig{AS: 64513, RouterID: 2, Color: 1, Logf: logf})
	c := NewSpeaker(SpeakerConfig{AS: 64514, RouterID: 3, Color: 1, Logf: logf})
	defer a.Close()
	defer b.Close()
	defer c.Close()

	var mu sync.Mutex
	seen := map[string]*wire.Attrs{}
	c.OnChange = func(p wire.Prefix, best *wire.Attrs) {
		mu.Lock()
		defer mu.Unlock()
		seen[p.String()] = best
	}

	// b listens for a (its customer) and c (its provider).
	addrB, err := b.Listen("127.0.0.1:0", map[uint16]Rel{
		64512: topology.RelCustomer,
		64514: topology.RelProvider,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Dial(addrB.String(), 64513, topology.RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := c.Dial(addrB.String(), 64513, topology.RelCustomer); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitEstablished(64513, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEstablished(64513, 3*time.Second); err != nil {
		t.Fatal(err)
	}

	// a originates with 64513 as its locked blue provider.
	pfx := wire.MustPrefix("198.51.100.0/24")
	a.Originate(pfx, 64513)

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if best := c.Best(pfx); best != nil {
			if len(best.ASPath) != 2 || best.ASPath[0] != 64513 || best.ASPath[1] != 64512 {
				t.Fatalf("AS path at c = %v, want [64513 64512]", best.ASPath)
			}
			if !best.Lock {
				t.Error("Lock attribute lost on the provider chain")
			}
			if !best.HasColor || best.Color != 1 {
				t.Error("color attribute lost")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("prefix never reached the top provider")
}

// TestSpeakerWithdrawOnSessionLoss: when the origin's session dies, the
// upstream speaker must drop the route.
func TestSpeakerWithdrawOnSessionLoss(t *testing.T) {
	a := NewSpeaker(SpeakerConfig{AS: 64512, RouterID: 1, Color: 0})
	b := NewSpeaker(SpeakerConfig{AS: 64513, RouterID: 2, Color: 0})
	defer b.Close()

	addrB, err := b.Listen("127.0.0.1:0", map[uint16]Rel{64512: topology.RelCustomer})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Dial(addrB.String(), 64513, topology.RelProvider); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitEstablished(64513, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	pfx := wire.MustPrefix("203.0.113.0/24")
	a.Originate(pfx, 0)

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && b.Best(pfx) == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if b.Best(pfx) == nil {
		t.Fatal("prefix never arrived")
	}

	a.Close()
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && b.Best(pfx) != nil {
		time.Sleep(5 * time.Millisecond)
	}
	if b.Best(pfx) != nil {
		t.Error("route survived session loss")
	}
}

// WaitEstablished blocks until a session with peerAS is up or the timeout
// expires.
func (sp *Speaker) WaitEstablished(peerAS uint16, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		sp.mu.Lock()
		_, ok := sp.peers[peerAS]
		sp.mu.Unlock()
		if ok {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("netd: no established session with AS%d after %v", peerAS, timeout)
}
