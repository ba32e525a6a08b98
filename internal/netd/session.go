// Package netd runs STAMP's wire protocol over real TCP connections: a
// session state machine (Idle → OpenSent → OpenConfirm → Established)
// with keepalive and hold timers, and a Speaker that maintains a
// multi-prefix RIB and exchanges routes with peers.
//
// It exists to demonstrate the paper's deployability claim end to end:
// the red and blue processes are ordinary BGP sessions — differentiated
// here by a color capability in the OPEN — whose UPDATEs carry just two
// extra optional transitive attributes (Lock and ET).
package netd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"stamp/internal/wire"
)

// SessionState is the BGP session FSM state.
type SessionState int32

const (
	// StateIdle is the initial state.
	StateIdle SessionState = iota
	// StateOpenSent means our OPEN is out, waiting for the peer's.
	StateOpenSent
	// StateOpenConfirm means OPENs crossed, waiting for KEEPALIVE.
	StateOpenConfirm
	// StateEstablished means the session exchanges routes.
	StateEstablished
	// StateClosed is terminal.
	StateClosed
)

// String names the state.
func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateOpenSent:
		return "open-sent"
	case StateOpenConfirm:
		return "open-confirm"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("SessionState(%d)", int32(s))
}

// SessionConfig parameterizes one session endpoint.
type SessionConfig struct {
	// LocalAS and RouterID identify this speaker.
	LocalAS  uint16
	RouterID uint32
	// Color is the STAMP process color advertised in the OPEN (0 red,
	// 1 blue).
	Color byte
	// HoldTime, after which a silent peer is declared dead. Keepalives go
	// out every HoldTime/3. Zero means 90 s.
	HoldTime time.Duration
	// OnUpdate receives every UPDATE from the peer.
	OnUpdate func(s *Session, u *wire.Update)
	// OnEstablished fires when the session reaches Established.
	OnEstablished func(s *Session)
	// OnClose fires once when the session dies; err may be nil on clean
	// shutdown.
	OnClose func(s *Session, err error)
	// Metrics, when non-nil, streams session liveness and message volume
	// into an obs registry.
	Metrics *Metrics
}

// Session is one BGP session over a net.Conn.
type Session struct {
	cfg  SessionConfig
	conn net.Conn
	bw   *bufio.Writer

	mu      sync.Mutex
	state   SessionState
	peer    *wire.Open
	lastErr error
	closed  bool

	writeMu sync.Mutex
	done    chan struct{}
}

// NewSession wraps conn; Run must be called to drive the handshake.
func NewSession(cfg SessionConfig, conn net.Conn) *Session {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90 * time.Second
	}
	return &Session{
		cfg:  cfg,
		conn: conn,
		bw:   bufio.NewWriter(conn),
		done: make(chan struct{}),
	}
}

// State returns the current FSM state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Peer returns the peer's OPEN (nil before OpenConfirm).
func (s *Session) Peer() *wire.Open {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer
}

// Done is closed when the session terminates.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the terminating error (nil before termination or on clean
// close).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Run drives the handshake and then the receive loop until the session
// dies. It blocks; callers usually run it in a goroutine.
func (s *Session) Run() error {
	err := s.run()
	s.shutdown(err)
	return err
}

func (s *Session) run() error {
	s.setState(StateOpenSent)
	// Writes during the handshake run asynchronously: both endpoints send
	// their OPEN before reading, which would deadlock on unbuffered
	// transports like net.Pipe if the write blocked the reader.
	open := wire.NewOpen(s.cfg.LocalAS, uint16(s.cfg.HoldTime/time.Second), s.cfg.RouterID, s.cfg.Color)
	openErr := make(chan error, 1)
	go func() { openErr <- s.write(open) }()

	msg, err := s.read()
	if err != nil {
		return fmt.Errorf("netd: waiting for OPEN: %w", err)
	}
	if err := <-openErr; err != nil {
		return fmt.Errorf("netd: sending OPEN: %w", err)
	}
	peerOpen, ok := msg.(*wire.Open)
	if !ok {
		s.notify(2, 0) // OPEN message error
		return fmt.Errorf("netd: expected OPEN, got type %d", msg.Type())
	}
	if peerOpen.Color != s.cfg.Color {
		s.notify(2, 1)
		return fmt.Errorf("netd: color mismatch: ours %d, peer %d", s.cfg.Color, peerOpen.Color)
	}
	s.mu.Lock()
	s.peer = peerOpen
	s.mu.Unlock()
	s.setState(StateOpenConfirm)

	kaErr := make(chan error, 1)
	go func() { kaErr <- s.write(&wire.Keepalive{}) }()
	msg, err = s.read()
	if err != nil {
		return fmt.Errorf("netd: waiting for KEEPALIVE: %w", err)
	}
	if err := <-kaErr; err != nil {
		return fmt.Errorf("netd: sending KEEPALIVE: %w", err)
	}
	if _, ok := msg.(*wire.Keepalive); !ok {
		return fmt.Errorf("netd: expected KEEPALIVE, got type %d", msg.Type())
	}
	s.setState(StateEstablished)
	if s.cfg.OnEstablished != nil {
		s.cfg.OnEstablished(s)
	}

	// Keepalive sender.
	stopKA := make(chan struct{})
	defer close(stopKA)
	go func() {
		t := time.NewTicker(s.cfg.HoldTime / 3)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.write(&wire.Keepalive{}); err != nil {
					return
				}
			case <-stopKA:
				return
			}
		}
	}()

	// Receive loop with hold timer via read deadlines.
	for {
		if err := s.conn.SetReadDeadline(time.Now().Add(s.cfg.HoldTime)); err != nil {
			return err
		}
		msg, err := s.read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // clean close by peer
			}
			return fmt.Errorf("netd: receive: %w", err)
		}
		switch m := msg.(type) {
		case *wire.Keepalive:
			// Hold timer refreshed by the successful read.
		case *wire.Update:
			if s.cfg.OnUpdate != nil {
				s.cfg.OnUpdate(s, m)
			}
		case *wire.Notification:
			return fmt.Errorf("netd: peer closed session: %w", m)
		default:
			s.notify(1, 3) // message header error / bad type
			return fmt.Errorf("netd: unexpected message type %d", msg.Type())
		}
	}
}

// SendUpdate transmits an UPDATE on an established session.
func (s *Session) SendUpdate(u *wire.Update) error {
	if s.State() != StateEstablished {
		return fmt.Errorf("netd: session not established (%v)", s.State())
	}
	return s.write(u)
}

// Close terminates the session cleanly.
func (s *Session) Close() error {
	s.notify(6, 0) // cease
	s.shutdown(nil)
	return nil
}

func (s *Session) notify(code, subcode byte) {
	// Best effort; the session is going down anyway. The deadline keeps a
	// peer that stopped reading from wedging our shutdown.
	_ = s.conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	_ = s.write(&wire.Notification{Code: code, Subcode: subcode})
	_ = s.conn.SetWriteDeadline(time.Time{})
}

func (s *Session) shutdown(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	wasUp := s.state == StateEstablished
	s.state = StateClosed
	s.lastErr = err
	s.mu.Unlock()
	if wasUp {
		s.cfg.Metrics.sessionDown()
	}
	_ = s.conn.Close()
	close(s.done)
	if s.cfg.OnClose != nil {
		s.cfg.OnClose(s, err)
	}
}

func (s *Session) setState(st SessionState) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
	if st == StateEstablished {
		s.cfg.Metrics.sessionUp()
	}
}

// write frames and sends one message.
func (s *Session) write(m wire.Message) error {
	b, err := wire.Marshal(m)
	if err != nil {
		return err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if _, err := s.bw.Write(b); err != nil {
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	s.cfg.Metrics.msgOut(m)
	return nil
}

// read blocks for one complete framed message.
func (s *Session) read() (wire.Message, error) {
	hdr := make([]byte, wire.HeaderLen)
	if _, err := io.ReadFull(s.conn, hdr); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(hdr[wire.MarkerLen:]))
	if length < wire.HeaderLen || length > wire.MaxMsgLen {
		return nil, wire.ErrBadLength
	}
	full := make([]byte, length)
	copy(full, hdr)
	if _, err := io.ReadFull(s.conn, full[wire.HeaderLen:]); err != nil {
		return nil, err
	}
	msg, err := wire.Unmarshal(full)
	if err == nil {
		s.cfg.Metrics.msgIn(msg)
	}
	return msg, err
}
