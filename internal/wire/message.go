// Package wire implements a BGP-4-style wire protocol carrying STAMP's
// two extra path attributes (Lock and ET) plus a process-color marker.
// It exists to demonstrate the paper's deployability claim: STAMP needs
// no new message types, only two optional transitive path attributes on
// otherwise standard BGP UPDATE messages.
//
// Framing follows RFC 4271: a 16-byte all-ones marker, a 2-byte length,
// a 1-byte type, then the type-specific body. Only the fields the
// simulator and the live speaker need are modeled; unknown path
// attributes round-trip untouched.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message type codes (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Protocol limits.
const (
	MarkerLen  = 16
	HeaderLen  = MarkerLen + 3
	MaxMsgLen  = 4096
	minMsgLen  = HeaderLen
	bgpVersion = 4
)

// Path attribute type codes. Lock, ET, and Color live in the private-use
// range as optional transitive attributes.
const (
	AttrOrigin  = 1
	AttrASPath  = 2
	AttrNextHop = 3
	AttrLock    = 224
	AttrET      = 225
	AttrColor   = 226
)

// Attribute flag bits.
const (
	FlagOptional   = 0x80
	FlagTransitive = 0x40
	FlagExtLen     = 0x10
)

// Errors returned by the unmarshalers.
var (
	ErrShortMessage = errors.New("wire: message too short")
	ErrBadMarker    = errors.New("wire: bad marker")
	ErrBadLength    = errors.New("wire: bad length field")
	ErrBadType      = errors.New("wire: unknown message type")
	ErrTrailing     = errors.New("wire: trailing bytes")
)

// Message is any BGP message.
type Message interface {
	// Type returns the message type code.
	Type() byte
	// marshalBody appends the body (everything after the common header).
	marshalBody(dst []byte) ([]byte, error)
}

// Marshal frames msg with the BGP header.
func Marshal(msg Message) ([]byte, error) {
	body, err := msg.marshalBody(make([]byte, 0, 64))
	if err != nil {
		return nil, err
	}
	total := HeaderLen + len(body)
	if total > MaxMsgLen {
		return nil, fmt.Errorf("wire: message length %d exceeds %d", total, MaxMsgLen)
	}
	out := make([]byte, HeaderLen, total)
	for i := 0; i < MarkerLen; i++ {
		out[i] = 0xFF
	}
	binary.BigEndian.PutUint16(out[MarkerLen:], uint16(total))
	out[MarkerLen+2] = msg.Type()
	return append(out, body...), nil
}

// Unmarshal parses one complete framed message.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < minMsgLen {
		return nil, ErrShortMessage
	}
	for i := 0; i < MarkerLen; i++ {
		if b[i] != 0xFF {
			return nil, ErrBadMarker
		}
	}
	length := int(binary.BigEndian.Uint16(b[MarkerLen:]))
	if length < minMsgLen || length > MaxMsgLen {
		return nil, ErrBadLength
	}
	if len(b) != length {
		if len(b) > length {
			return nil, ErrTrailing
		}
		return nil, ErrShortMessage
	}
	body := b[HeaderLen:]
	switch b[MarkerLen+2] {
	case TypeOpen:
		return unmarshalOpen(body)
	case TypeUpdate:
		return unmarshalUpdate(body)
	case TypeNotification:
		return unmarshalNotification(body)
	case TypeKeepalive:
		if len(body) != 0 {
			return nil, ErrTrailing
		}
		return &Keepalive{}, nil
	default:
		return nil, ErrBadType
	}
}

// Open is the session establishment message.
type Open struct {
	Version  byte
	AS       uint16
	HoldTime uint16
	RouterID uint32
	// Color advertises which STAMP process this session belongs to
	// (0 red, 1 blue), carried as a one-byte capability.
	Color byte
}

// Type implements Message.
func (*Open) Type() byte { return TypeOpen }

func (o *Open) marshalBody(dst []byte) ([]byte, error) {
	dst = append(dst, o.Version)
	dst = binary.BigEndian.AppendUint16(dst, o.AS)
	dst = binary.BigEndian.AppendUint16(dst, o.HoldTime)
	dst = binary.BigEndian.AppendUint32(dst, o.RouterID)
	// Optional parameters: one capability-style TLV carrying the color.
	// optParmLen, then parm type 2 (capability), parm len 3,
	// cap code 0xDC (private), cap len 1, color.
	dst = append(dst, 5, 2, 3, 0xDC, 1, o.Color)
	return dst, nil
}

func unmarshalOpen(b []byte) (*Open, error) {
	if len(b) < 10 {
		return nil, ErrShortMessage
	}
	o := &Open{
		Version:  b[0],
		AS:       binary.BigEndian.Uint16(b[1:]),
		HoldTime: binary.BigEndian.Uint16(b[3:]),
		RouterID: binary.BigEndian.Uint32(b[5:]),
	}
	optLen := int(b[9])
	opts := b[10:]
	if len(opts) != optLen {
		return nil, ErrBadLength
	}
	for len(opts) >= 2 {
		ptype, plen := opts[0], int(opts[1])
		if len(opts) < 2+plen {
			return nil, ErrBadLength
		}
		val := opts[2 : 2+plen]
		if ptype == 2 && plen >= 3 && val[0] == 0xDC && val[1] == 1 {
			o.Color = val[2]
		}
		opts = opts[2+plen:]
	}
	return o, nil
}

// NewOpen builds a version-4 Open with sane defaults.
func NewOpen(as uint16, holdTime uint16, routerID uint32, color byte) *Open {
	return &Open{Version: bgpVersion, AS: as, HoldTime: holdTime, RouterID: routerID, Color: color}
}

// Keepalive is the empty-bodied liveness message.
type Keepalive struct{}

// Type implements Message.
func (*Keepalive) Type() byte { return TypeKeepalive }

func (*Keepalive) marshalBody(dst []byte) ([]byte, error) { return dst, nil }

// Notification reports a fatal session error.
type Notification struct {
	Code    byte
	Subcode byte
	Data    []byte
}

// Type implements Message.
func (*Notification) Type() byte { return TypeNotification }

func (n *Notification) marshalBody(dst []byte) ([]byte, error) {
	dst = append(dst, n.Code, n.Subcode)
	return append(dst, n.Data...), nil
}

func unmarshalNotification(b []byte) (*Notification, error) {
	if len(b) < 2 {
		return nil, ErrShortMessage
	}
	n := &Notification{Code: b[0], Subcode: b[1]}
	if len(b) > 2 {
		n.Data = append([]byte(nil), b[2:]...)
	}
	return n, nil
}

// Error renders the notification as an error string.
func (n *Notification) Error() string {
	return fmt.Sprintf("bgp notification %d/%d", n.Code, n.Subcode)
}
