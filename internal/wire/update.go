package wire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Update is the BGP UPDATE message: withdrawn prefixes, path attributes,
// and announced prefixes (NLRI). STAMP's Lock and ET bits and the process
// color ride as optional transitive path attributes.
type Update struct {
	Withdrawn []Prefix
	Attrs     Attrs
	NLRI      []Prefix
}

// Attrs is the decoded path attribute set.
type Attrs struct {
	// HasOrigin / Origin: RFC 4271 ORIGIN (0 IGP, 1 EGP, 2 INCOMPLETE).
	HasOrigin bool
	Origin    byte
	// ASPath is the AS_PATH as a single AS_SEQUENCE, nearest AS first.
	ASPath []uint16
	// NextHop is the IPv4 next hop (zero value when absent).
	NextHop netip.Addr
	// Lock is STAMP's Lock attribute (present only when true).
	Lock bool
	// HasET / ET carry STAMP's Event Type bit: ET=0 means the update was
	// caused by a route loss.
	HasET bool
	ET    byte
	// HasColor / Color mark the STAMP process (0 red, 1 blue).
	HasColor bool
	Color    byte
	// Unknown preserves unrecognized attributes for transparent
	// forwarding: (flags, type, value) triples in arrival order.
	Unknown []RawAttr
}

// RawAttr is an unparsed path attribute.
type RawAttr struct {
	Flags byte
	Type  byte
	Value []byte
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr netip.Addr
	Bits int
}

// String renders the prefix in CIDR form.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// MustPrefix parses a CIDR string, panicking on error (for literal
// prefixes).
func MustPrefix(s string) Prefix {
	pfx, err := netip.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return Prefix{Addr: pfx.Addr(), Bits: pfx.Bits()}
}

// Type implements Message.
func (*Update) Type() byte { return TypeUpdate }

func (u *Update) marshalBody(dst []byte) ([]byte, error) {
	wd, err := marshalPrefixes(nil, u.Withdrawn)
	if err != nil {
		return nil, err
	}
	pa, err := u.Attrs.marshal(nil)
	if err != nil {
		return nil, err
	}
	nl, err := marshalPrefixes(nil, u.NLRI)
	if err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(wd)))
	dst = append(dst, wd...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(pa)))
	dst = append(dst, pa...)
	return append(dst, nl...), nil
}

func unmarshalUpdate(b []byte) (*Update, error) {
	if len(b) < 4 {
		return nil, ErrShortMessage
	}
	u := &Update{}
	wdLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < wdLen+2 {
		return nil, ErrBadLength
	}
	var err error
	if u.Withdrawn, err = unmarshalPrefixes(b[:wdLen]); err != nil {
		return nil, err
	}
	b = b[wdLen:]
	paLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < paLen {
		return nil, ErrBadLength
	}
	if err = u.Attrs.unmarshal(b[:paLen]); err != nil {
		return nil, err
	}
	if u.NLRI, err = unmarshalPrefixes(b[paLen:]); err != nil {
		return nil, err
	}
	return u, nil
}

func marshalPrefixes(dst []byte, ps []Prefix) ([]byte, error) {
	for _, p := range ps {
		if !p.Addr.Is4() {
			return nil, fmt.Errorf("wire: prefix %v is not IPv4", p)
		}
		if p.Bits < 0 || p.Bits > 32 {
			return nil, fmt.Errorf("wire: bad prefix length %d", p.Bits)
		}
		dst = append(dst, byte(p.Bits))
		a4 := p.Addr.As4()
		dst = append(dst, a4[:(p.Bits+7)/8]...)
	}
	return dst, nil
}

func unmarshalPrefixes(b []byte) ([]Prefix, error) {
	var out []Prefix
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, fmt.Errorf("wire: bad prefix length %d", bits)
		}
		n := (bits + 7) / 8
		if len(b) < 1+n {
			return nil, ErrBadLength
		}
		var a4 [4]byte
		copy(a4[:], b[1:1+n])
		out = append(out, Prefix{Addr: netip.AddrFrom4(a4), Bits: bits})
		b = b[1+n:]
	}
	return out, nil
}

func appendAttr(dst []byte, flags, typ byte, val []byte) ([]byte, error) {
	if len(val) > 0xFFFF {
		return nil, fmt.Errorf("wire: attribute %d too long (%d bytes)", typ, len(val))
	}
	if len(val) > 0xFF {
		flags |= FlagExtLen
		dst = append(dst, flags, typ)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(val)))
	} else {
		dst = append(dst, flags&^FlagExtLen, typ, byte(len(val)))
	}
	return append(dst, val...), nil
}

func (a *Attrs) marshal(dst []byte) ([]byte, error) {
	var err error
	if a.HasOrigin {
		if dst, err = appendAttr(dst, FlagTransitive, AttrOrigin, []byte{a.Origin}); err != nil {
			return nil, err
		}
	}
	if a.ASPath != nil {
		// One AS_SEQUENCE segment: type 2, count, ASes.
		val := make([]byte, 0, 2+2*len(a.ASPath))
		if len(a.ASPath) > 255 {
			return nil, fmt.Errorf("wire: AS path too long (%d)", len(a.ASPath))
		}
		val = append(val, 2, byte(len(a.ASPath)))
		for _, as := range a.ASPath {
			val = binary.BigEndian.AppendUint16(val, as)
		}
		if dst, err = appendAttr(dst, FlagTransitive, AttrASPath, val); err != nil {
			return nil, err
		}
	}
	if a.NextHop.IsValid() {
		if !a.NextHop.Is4() {
			return nil, fmt.Errorf("wire: next hop %v is not IPv4", a.NextHop)
		}
		a4 := a.NextHop.As4()
		if dst, err = appendAttr(dst, FlagTransitive, AttrNextHop, a4[:]); err != nil {
			return nil, err
		}
	}
	if a.Lock {
		if dst, err = appendAttr(dst, FlagOptional|FlagTransitive, AttrLock, []byte{1}); err != nil {
			return nil, err
		}
	}
	if a.HasET {
		if dst, err = appendAttr(dst, FlagOptional|FlagTransitive, AttrET, []byte{a.ET}); err != nil {
			return nil, err
		}
	}
	if a.HasColor {
		if dst, err = appendAttr(dst, FlagOptional|FlagTransitive, AttrColor, []byte{a.Color}); err != nil {
			return nil, err
		}
	}
	for _, raw := range a.Unknown {
		if dst, err = appendAttr(dst, raw.Flags, raw.Type, raw.Value); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (a *Attrs) unmarshal(b []byte) error {
	for len(b) > 0 {
		if len(b) < 3 {
			return ErrBadLength
		}
		flags, typ := b[0], b[1]
		var vlen int
		if flags&FlagExtLen != 0 {
			if len(b) < 4 {
				return ErrBadLength
			}
			vlen = int(binary.BigEndian.Uint16(b[2:]))
			b = b[4:]
		} else {
			vlen = int(b[2])
			b = b[3:]
		}
		if len(b) < vlen {
			return ErrBadLength
		}
		val := b[:vlen]
		b = b[vlen:]
		switch typ {
		case AttrOrigin:
			if vlen != 1 {
				return fmt.Errorf("wire: ORIGIN length %d", vlen)
			}
			a.HasOrigin, a.Origin = true, val[0]
		case AttrASPath:
			path, err := unmarshalASPath(val)
			if err != nil {
				return err
			}
			a.ASPath = path
		case AttrNextHop:
			if vlen != 4 {
				return fmt.Errorf("wire: NEXT_HOP length %d", vlen)
			}
			var a4 [4]byte
			copy(a4[:], val)
			a.NextHop = netip.AddrFrom4(a4)
		case AttrLock:
			if vlen != 1 {
				return fmt.Errorf("wire: LOCK length %d", vlen)
			}
			a.Lock = val[0] != 0
		case AttrET:
			if vlen != 1 {
				return fmt.Errorf("wire: ET length %d", vlen)
			}
			a.HasET, a.ET = true, val[0]
		case AttrColor:
			if vlen != 1 {
				return fmt.Errorf("wire: COLOR length %d", vlen)
			}
			a.HasColor, a.Color = true, val[0]
		default:
			a.Unknown = append(a.Unknown, RawAttr{
				Flags: flags, Type: typ, Value: append([]byte(nil), val...),
			})
		}
	}
	return nil
}

// maxASPathLen caps the decoded AS path. The marshaler emits a single
// AS_SEQUENCE whose count field is one byte, so longer paths could be
// decoded (across segments) but never re-encoded; rejecting them keeps
// decode/encode a closed loop. Real paths are far shorter.
const maxASPathLen = 255

func unmarshalASPath(b []byte) ([]uint16, error) {
	var path []uint16
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, ErrBadLength
		}
		segType, count := b[0], int(b[1])
		if segType != 1 && segType != 2 {
			return nil, fmt.Errorf("wire: bad AS path segment type %d", segType)
		}
		b = b[2:]
		if len(b) < 2*count {
			return nil, ErrBadLength
		}
		if len(path)+count > maxASPathLen {
			return nil, fmt.Errorf("wire: AS path longer than %d", maxASPathLen)
		}
		for i := 0; i < count; i++ {
			path = append(path, binary.BigEndian.Uint16(b[2*i:]))
		}
		b = b[2*count:]
	}
	return path, nil
}
