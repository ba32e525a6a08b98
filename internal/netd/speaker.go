package netd

import (
	"fmt"
	"net"
	"sync"
	"time"

	"stamp/internal/topology"
	"stamp/internal/wire"
)

// Rel aliases the topology relationship type for peer configuration.
type Rel = topology.Rel

// SpeakerConfig configures one routing process (one color) of a live
// STAMP router.
type SpeakerConfig struct {
	AS       uint16
	RouterID uint32
	// Color is the STAMP process color (0 red, 1 blue).
	Color byte
	// HoldTime for all sessions (default 90 s).
	HoldTime time.Duration
	// Logf, when non-nil, receives diagnostic lines.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, is installed on every session the speaker
	// creates.
	Metrics *Metrics
}

// route is one RIB entry.
type route struct {
	prefix  wire.Prefix
	attrs   wire.Attrs
	fromAS  uint16
	fromRel Rel
}

// peerConn is an active session plus peering metadata.
type peerConn struct {
	sess *Session
	as   uint16
	rel  Rel
}

// Speaker is one live routing process: sessions to peers, a multi-prefix
// RIB with prefer-customer selection and valley-free export, and STAMP's
// Lock/ET attributes passed through.
type Speaker struct {
	cfg SpeakerConfig

	mu       sync.Mutex
	peers    map[uint16]*peerConn  // by peer AS
	sessions map[*Session]struct{} // every live session, established or not
	ribIn    map[string]map[uint16]*route
	origin   map[string]wire.Prefix // locally originated prefixes
	lockTo   uint16                 // provider AS receiving locked blue (0 = none chosen)
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup                             // session and accept goroutines
	OnChange func(prefix wire.Prefix, best *wire.Attrs) // fires on best-route changes
}

// NewSpeaker builds an idle speaker.
func NewSpeaker(cfg SpeakerConfig) *Speaker {
	return &Speaker{
		cfg:      cfg,
		peers:    make(map[uint16]*peerConn),
		sessions: make(map[*Session]struct{}),
		ribIn:    make(map[string]map[uint16]*route),
		origin:   make(map[string]wire.Prefix),
	}
}

// track registers a session for shutdown and reserves goroutines slots
// on the speaker's WaitGroup — inside the same critical section as the
// closed check, so Close's Wait can never race a zero-counter Add. It
// reports false — and the caller must abandon the session without
// spawning anything — when the speaker is already closed, so sessions
// born during Close cannot escape teardown. goroutines is 0 when the
// calling goroutine is already counted (the accept path).
func (sp *Speaker) track(s *Session, goroutines int) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return false
	}
	sp.sessions[s] = struct{}{}
	sp.wg.Add(goroutines)
	return true
}

func (sp *Speaker) untrack(s *Session) {
	sp.mu.Lock()
	delete(sp.sessions, s)
	sp.mu.Unlock()
}

func (sp *Speaker) logf(format string, args ...any) {
	if sp.cfg.Logf != nil {
		sp.cfg.Logf("[AS%d %s] "+format, append([]any{sp.cfg.AS, colorName(sp.cfg.Color)}, args...)...)
	}
}

func colorName(c byte) string {
	if c == 0 {
		return "red"
	}
	return "blue"
}

// Listen accepts inbound sessions on addr. Peer relationship for inbound
// connections is resolved via expect, mapping peer AS to relationship.
func (sp *Speaker) Listen(addr string, expect map[uint16]Rel) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		_ = ln.Close()
		return nil, fmt.Errorf("netd: speaker is closed")
	}
	sp.ln = ln
	sp.wg.Add(1)
	sp.mu.Unlock()
	go func() {
		defer sp.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			sp.wg.Add(1)
			go func() {
				defer sp.wg.Done()
				sp.serve(conn, expect)
			}()
		}
	}()
	return ln.Addr(), nil
}

// serve handles one inbound connection.
func (sp *Speaker) serve(conn net.Conn, expect map[uint16]Rel) {
	var pc *peerConn
	sess := NewSession(SessionConfig{
		LocalAS:  sp.cfg.AS,
		RouterID: sp.cfg.RouterID,
		Color:    sp.cfg.Color,
		HoldTime: sp.cfg.HoldTime,
		Metrics:  sp.cfg.Metrics,
		OnEstablished: func(s *Session) {
			peerAS := s.Peer().AS
			rel, ok := expect[peerAS]
			if !ok {
				sp.logf("rejecting unknown peer AS%d", peerAS)
				_ = s.Close()
				return
			}
			pc = &peerConn{sess: s, as: peerAS, rel: rel}
			sp.addPeer(pc)
		},
		OnUpdate: func(s *Session, u *wire.Update) {
			if pc != nil {
				sp.handleUpdate(pc, u)
			}
		},
		OnClose: func(s *Session, err error) {
			if pc != nil {
				sp.dropPeer(pc.as)
			}
		},
	}, conn)
	if !sp.track(sess, 0) {
		_ = conn.Close()
		return
	}
	_ = sess.Run()
	sp.untrack(sess)
}

// Dial connects to a peer at addr with the given relationship (from our
// perspective: RelProvider means the peer is our provider).
func (sp *Speaker) Dial(addr string, peerAS uint16, rel Rel) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("netd: dialing %s: %w", addr, err)
	}
	var pc *peerConn
	sess := NewSession(SessionConfig{
		LocalAS:  sp.cfg.AS,
		RouterID: sp.cfg.RouterID,
		Color:    sp.cfg.Color,
		HoldTime: sp.cfg.HoldTime,
		Metrics:  sp.cfg.Metrics,
		OnEstablished: func(s *Session) {
			pc = &peerConn{sess: s, as: peerAS, rel: rel}
			sp.addPeer(pc)
		},
		OnUpdate: func(s *Session, u *wire.Update) {
			if pc != nil {
				sp.handleUpdate(pc, u)
			}
		},
		OnClose: func(s *Session, err error) {
			if pc != nil {
				sp.dropPeer(peerAS)
			}
		},
	}, conn)
	if !sp.track(sess, 1) {
		_ = conn.Close()
		return fmt.Errorf("netd: speaker is closed")
	}
	go func() {
		defer sp.wg.Done()
		_ = sess.Run()
		sp.untrack(sess)
	}()
	return nil
}

// Close shuts down the listener and every session — established or still
// mid-handshake — and waits for all reader, writer, and accept goroutines
// to exit, so a closed speaker leaks nothing. It is idempotent.
func (sp *Speaker) Close() {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		sp.wg.Wait()
		return
	}
	sp.closed = true
	ln := sp.ln
	sessions := make([]*Session, 0, len(sp.sessions))
	for s := range sp.sessions {
		sessions = append(sessions, s)
	}
	sp.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, s := range sessions {
		_ = s.Close()
	}
	sp.wg.Wait()
}

// Originate announces a locally owned prefix. For the blue process,
// lockProvider names the provider AS that receives the locked
// announcement (STAMP's selective announcement); zero means no lock
// (red process, or no providers).
func (sp *Speaker) Originate(p wire.Prefix, lockProvider uint16) {
	sp.mu.Lock()
	sp.origin[p.String()] = p
	sp.lockTo = lockProvider
	sp.mu.Unlock()
	sp.reannounce(p)
}

// addPeer registers an established session and sends it our eligible
// routes.
func (sp *Speaker) addPeer(pc *peerConn) {
	sp.mu.Lock()
	sp.peers[pc.as] = pc
	var prefixes []wire.Prefix
	for _, p := range sp.origin {
		prefixes = append(prefixes, p)
	}
	for key := range sp.ribIn {
		if best := sp.bestLocked(key); best != nil {
			prefixes = append(prefixes, best.prefix)
		}
	}
	sp.mu.Unlock()
	sp.logf("session with AS%d established", pc.as)
	for _, p := range prefixes {
		sp.reannounce(p)
	}
}

// dropPeer removes a dead session and re-evaluates affected prefixes.
func (sp *Speaker) dropPeer(as uint16) {
	sp.mu.Lock()
	delete(sp.peers, as)
	var affected []wire.Prefix
	for key, entries := range sp.ribIn {
		if r, ok := entries[as]; ok {
			delete(entries, as)
			affected = append(affected, r.prefix)
			_ = key
		}
	}
	sp.mu.Unlock()
	sp.logf("session with AS%d closed", as)
	for _, p := range affected {
		sp.notifyChange(p, true)
		sp.reannounce(p)
	}
}

// handleUpdate processes one UPDATE from a peer.
func (sp *Speaker) handleUpdate(pc *peerConn, u *wire.Update) {
	var changed []wire.Prefix
	sp.mu.Lock()
	for _, p := range u.Withdrawn {
		key := p.String()
		if entries, ok := sp.ribIn[key]; ok {
			if _, had := entries[pc.as]; had {
				delete(entries, pc.as)
				changed = append(changed, p)
			}
		}
	}
	for _, p := range u.NLRI {
		// Loop check: our AS in the path means discard.
		looped := false
		for _, as := range u.Attrs.ASPath {
			if as == sp.cfg.AS {
				looped = true
				break
			}
		}
		key := p.String()
		if looped {
			if entries, ok := sp.ribIn[key]; ok {
				if _, had := entries[pc.as]; had {
					delete(entries, pc.as)
					changed = append(changed, p)
				}
			}
			continue
		}
		if sp.ribIn[key] == nil {
			sp.ribIn[key] = make(map[uint16]*route)
		}
		sp.ribIn[key][pc.as] = &route{prefix: p, attrs: u.Attrs, fromAS: pc.as, fromRel: pc.rel}
		changed = append(changed, p)
	}
	sp.mu.Unlock()
	for _, p := range changed {
		sp.notifyChange(p, u.Attrs.HasET && u.Attrs.ET == 0)
		sp.reannounce(p)
	}
}

// relPref maps relationships to local preference.
func relPref(r Rel) int {
	switch r {
	case topology.RelCustomer:
		return 100
	case topology.RelPeer:
		return 90
	case topology.RelProvider:
		return 80
	}
	return 0
}

// bestLocked returns the best RIB entry for a prefix key; callers hold
// sp.mu.
func (sp *Speaker) bestLocked(key string) *route {
	var best *route
	for _, r := range sp.ribIn[key] {
		switch {
		case best == nil,
			relPref(r.fromRel) > relPref(best.fromRel),
			relPref(r.fromRel) == relPref(best.fromRel) && len(r.attrs.ASPath) < len(best.attrs.ASPath),
			relPref(r.fromRel) == relPref(best.fromRel) && len(r.attrs.ASPath) == len(best.attrs.ASPath) && r.fromAS < best.fromAS:
			best = r
		}
	}
	return best
}

// Best returns the selected attributes for a prefix (nil if none), for
// tests and diagnostics. Locally originated prefixes return empty attrs.
func (sp *Speaker) Best(p wire.Prefix) *wire.Attrs {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.origin[p.String()]; ok {
		return &wire.Attrs{HasOrigin: true}
	}
	if r := sp.bestLocked(p.String()); r != nil {
		a := r.attrs
		return &a
	}
	return nil
}

func (sp *Speaker) notifyChange(p wire.Prefix, loss bool) {
	if sp.OnChange == nil {
		return
	}
	sp.OnChange(p, sp.Best(p))
	_ = loss
}

// reannounce recomputes and sends the advertisement of prefix p to every
// peer under valley-free export and STAMP's selective announcement:
// locked blue goes to the lock provider only; everything else follows
// prefer-customer/valley-free.
func (sp *Speaker) reannounce(p wire.Prefix) {
	key := p.String()
	sp.mu.Lock()
	_, isOrigin := sp.origin[key]
	best := sp.bestLocked(key)
	lockTo := sp.lockTo
	type outMsg struct {
		sess *Session
		u    *wire.Update
	}
	var outs []outMsg
	for as, pc := range sp.peers {
		var u *wire.Update
		switch {
		case isOrigin:
			attrs := wire.Attrs{
				HasOrigin: true,
				ASPath:    []uint16{sp.cfg.AS},
				HasColor:  true,
				Color:     sp.cfg.Color,
				HasET:     true,
				ET:        1,
			}
			send := true
			if sp.cfg.Color == 1 && pc.rel == topology.RelProvider {
				// Blue origination: locked announcement to the chosen
				// provider only.
				if as == lockTo {
					attrs.Lock = true
				} else {
					send = false
				}
			}
			if sp.cfg.Color == 0 && pc.rel == topology.RelProvider && as == lockTo {
				// Red never goes to the locked blue provider.
				send = false
			}
			if send {
				u = &wire.Update{Attrs: attrs, NLRI: []wire.Prefix{p}}
			}
		case best != nil && exportOK(best.fromRel, pc.rel) && best.fromAS != as:
			attrs := best.attrs
			attrs.ASPath = append([]uint16{sp.cfg.AS}, best.attrs.ASPath...)
			if pc.rel != topology.RelProvider {
				attrs.Lock = false
			}
			u = &wire.Update{Attrs: attrs, NLRI: []wire.Prefix{p}}
		}
		if u == nil {
			u = &wire.Update{Withdrawn: []wire.Prefix{p}}
		}
		outs = append(outs, outMsg{sess: pc.sess, u: u})
	}
	sp.mu.Unlock()
	for _, o := range outs {
		if err := o.sess.SendUpdate(o.u); err != nil {
			sp.logf("send failed: %v", err)
		}
	}
}

// exportOK is the valley-free export rule.
func exportOK(from, to Rel) bool {
	if from == topology.RelCustomer {
		return true
	}
	return to == topology.RelCustomer
}
