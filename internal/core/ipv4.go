package core

import (
	"encoding/binary"
	"fmt"
)

// IPv4HeaderLen is the length of the (option-less) IPv4 header we model.
const IPv4HeaderLen = 20

// ProtoUDP is the IP protocol number of the simulated stack's one
// transport.
const ProtoUDP uint8 = 17

// IPv4 is a minimal IPv4 header: enough for routing (L3 LPM lookups),
// flow classification (TCAM matches), congestion experiments, and the
// fixed-function spin-bit observer (a TOS bit).  The checksum is
// computed on serialization and verified on parse.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16 // filled in by Packet.Serialize when zero
	ID       uint16
	TTL      uint8
	Proto    uint8
	Src      uint32
	Dst      uint32
	// Options holds raw IP option bytes; their length must be a
	// multiple of 4 and at most MaxIPv4Options bytes.
	Options []byte
}

// MaxIPv4Options is the architectural IP option space limit (IHL is a
// 4-bit word count: 60-byte header minus the 20 fixed bytes).
const MaxIPv4Options = 40

// HeaderLen returns the header length including options.
func (h *IPv4) HeaderLen() int { return IPv4HeaderLen + len(h.Options) }

// SpinBit is the latency spin bit, carried in TOS bit 2 — above the two
// ECN bits, so it composes with them.  Endpoints maintain it QUIC-style (one alternation
// per round trip) and any on-path observer can infer the flow's RTT from
// the bit's edge-to-edge interval with zero end-host cooperation.
const (
	SpinBit uint8 = 0x04
)

// IPv4Addr packs four octets into the uint32 address representation.
func IPv4Addr(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// AppendTo serializes the header (and any options) onto b.  Option
// bytes longer than MaxIPv4Options or unaligned to 4 bytes panic:
// callers construct options through the provided builders, which keep
// them well-formed.
func (h *IPv4) AppendTo(b []byte) []byte {
	if len(h.Options)%4 != 0 || len(h.Options) > MaxIPv4Options {
		panic(fmt.Sprintf("core: malformed IPv4 options length %d", len(h.Options)))
	}
	off := len(b)
	ihl := byte(5 + len(h.Options)/4)
	b = append(b, 0x40|ihl, h.TOS)
	b = binary.BigEndian.AppendUint16(b, h.TotalLen)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = append(b, 0, 0) // flags+fragment offset: unfragmented
	b = append(b, h.TTL, h.Proto, 0, 0)
	b = binary.BigEndian.AppendUint32(b, h.Src)
	b = binary.BigEndian.AppendUint32(b, h.Dst)
	b = append(b, h.Options...)
	sum := ipChecksum(b[off : off+h.HeaderLen()])
	binary.BigEndian.PutUint16(b[off+10:], sum)
	return b
}

// ParseIPv4 decodes an IPv4 header from the front of b, verifying the
// version, header length and checksum.
func ParseIPv4(b []byte, h *IPv4) (int, error) {
	if len(b) < IPv4HeaderLen {
		return 0, fmt.Errorf("core: IPv4 header truncated: %d bytes", len(b))
	}
	if b[0]>>4 != 4 {
		return 0, fmt.Errorf("core: not IPv4: version byte %#x", b[0])
	}
	hlen := int(b[0]&0x0F) * 4
	if hlen < IPv4HeaderLen || hlen > IPv4HeaderLen+MaxIPv4Options {
		return 0, fmt.Errorf("core: bad IPv4 IHL %d", hlen)
	}
	if len(b) < hlen {
		return 0, fmt.Errorf("core: IPv4 options truncated: %d < %d", len(b), hlen)
	}
	if ipChecksum(b[:hlen]) != 0 {
		return 0, fmt.Errorf("core: IPv4 header checksum mismatch")
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Proto = b[9]
	h.Src = binary.BigEndian.Uint32(b[12:16])
	h.Dst = binary.BigEndian.Uint32(b[16:20])
	h.Options = append(h.Options[:0], b[IPv4HeaderLen:hlen]...)
	return hlen, nil
}

// ipChecksum is the standard ones-complement Internet checksum.  When
// computed over a header whose checksum field holds the correct value,
// the result is zero.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
