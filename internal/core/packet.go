package core

import (
	"fmt"
)

// Metadata holds the per-packet registers an ASIC keeps alongside a
// packet while it moves through the pipeline ("in its registers, the
// ASIC keeps metadata such as input port, the selected route, etc. for
// every packet").  It is exposed to TPPs through the PacketMetadata
// namespace and reset at every switch.  Metadata never goes on the
// wire.
type Metadata struct {
	UID          uint64 // simulator-unique packet id, for tracing
	InPort       uint32 // ingress port at the current switch
	OutPort      uint32 // egress port selected by the lookup pipeline
	MatchedEntry uint32 // id of the matched flow-table entry (ndb)
	MatchedVer   uint32 // version number of the matched entry (ndb)
	AltRoutes    uint32 // number of alternate routes for the packet
	WireLen      uint32 // frame length in bytes, stamped by the parser
	EnqueuedAt   int64  // sim time ns the packet entered the current switch
}

// Packet is a fully decoded frame moving through the simulator.  Layers
// after Eth are optional: a TPP packet is Eth+TPP and usually
// encapsulates IP/UDP; a plain data packet has TPP == nil.
//
// PadLen is the number of additional, virtual payload bytes: congestion
// experiments move megabytes of payload whose contents never matter, so
// the simulator accounts for their length without materializing them.
// Serialize emits them as zeros.
type Packet struct {
	Eth Ethernet
	// pooled marks a packet drawn from a packet pool (see pool.go); set
	// only by a Pool draw, cleared by Recycle and Adopt.  A shallow
	// struct copy inherits the flag, so copies must Adopt themselves.
	// It sits in the two bytes of padding after the 14-byte Eth.
	pooled bool

	TPP     *TPP
	IP      *IPv4
	UDP     *UDP
	Payload []byte
	PadLen  int

	Meta Metadata

	// dbg is the pooldebug sanitizer state: zero-sized in release
	// builds, a slot-generation pin under -tags pooldebug (pool_debug.go).
	// It is not the last field: a zero-sized last field pads the struct
	// by a word.
	dbg poolDebug
	// block points back to the pool block the packet was drawn in (nil
	// for heap-owned packets); Recycle uses it to return the whole
	// co-allocated block to its pool and to tell the resident packet
	// apart from a shallow copy.
	block *pooledBlock
}

// udpPacketBlock co-allocates a packet with its IP and UDP headers.
// Data-packet construction is on the generator hot path of every
// congestion and telemetry experiment; one allocation instead of three
// is measurable at line rate.  The three die together, so block
// lifetime equals packet lifetime.
type udpPacketBlock struct {
	pkt Packet
	ip  IPv4
	udp UDP
}

// NewUDPPacket builds an Eth+IP+UDP data packet in a single allocation.
func NewUDPPacket(eth Ethernet, ip IPv4, udp UDP) *Packet {
	b := &udpPacketBlock{pkt: Packet{Eth: eth}, ip: ip, udp: udp}
	b.pkt.IP = &b.ip
	b.pkt.UDP = &b.udp
	return &b.pkt
}

// PayloadLen returns the application payload length in bytes, including
// virtual padding.
func (p *Packet) PayloadLen() int { return len(p.Payload) + p.PadLen }

// WireLen returns the total frame size in bytes as it would appear on
// the wire; links charge serialization time for this many bytes.
//
//alloc:free
func (p *Packet) WireLen() int {
	p.checkLive("WireLen")
	n := EthernetHeaderLen
	if p.TPP != nil {
		n += p.TPP.WireLen()
	}
	if p.IP != nil {
		n += p.IP.HeaderLen()
	}
	if p.UDP != nil {
		n += UDPHeaderLen
	}
	return n + p.PayloadLen()
}

// Serialize produces the full wire representation of the frame.  Layers
// are emitted outermost first (the inverse of Decode); zero Length
// fields in IP and UDP headers are filled from the actual sizes.
//
//api:oracle the wire encoding the pool and packet tests round-trip through Decode
func (p *Packet) Serialize() []byte {
	p.checkLive("Serialize")
	b := make([]byte, 0, p.WireLen())
	b = p.Eth.AppendTo(b)
	if p.TPP != nil {
		b = p.TPP.AppendTo(b)
	}
	if p.IP != nil {
		ip := *p.IP
		if ip.TotalLen == 0 {
			n := ip.HeaderLen() + p.PayloadLen()
			if p.UDP != nil {
				n += UDPHeaderLen
			}
			ip.TotalLen = uint16(n)
		}
		b = ip.AppendTo(b)
	}
	if p.UDP != nil {
		u := *p.UDP
		if u.Length == 0 {
			u.Length = uint16(UDPHeaderLen + p.PayloadLen())
		}
		b = u.AppendTo(b)
	}
	b = append(b, p.Payload...)
	for i := 0; i < p.PadLen; i++ {
		b = append(b, 0)
	}
	return b
}

// Decode parses a wire-format frame into a Packet.  The inner layers
// after the Ethernet (and optional TPP) header are decoded when their
// EtherType/protocol is understood; unknown payloads are kept as opaque
// bytes.
//
//api:oracle the wire decoding the pool and packet tests round-trip through Serialize
func Decode(b []byte) (*Packet, error) {
	p := &Packet{}
	n, err := ParseEthernet(b, &p.Eth)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	if p.Eth.Type == EtherTypeTPP {
		p.TPP = &TPP{}
		n, err = ParseTPP(b, p.TPP)
		if err != nil {
			return nil, fmt.Errorf("core: decoding TPP: %w", err)
		}
		b = b[n:]
		// The TPP encapsulates the original payload; if any bytes
		// remain, they begin with an IPv4 header in our stack.
		if len(b) == 0 {
			return p, nil
		}
	}
	if p.Eth.Type == EtherTypeIPv4 || p.Eth.Type == EtherTypeTPP {
		p.IP = &IPv4{}
		n, err = ParseIPv4(b, p.IP)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		if p.IP.Proto == ProtoUDP {
			p.UDP = &UDP{}
			n, err = ParseUDP(b, p.UDP)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		}
	}
	p.Payload = append([]byte(nil), b...)
	return p, nil
}
