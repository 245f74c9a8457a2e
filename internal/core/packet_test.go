package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// Clone deep-copies the packet, including its TPP and payload, into a
// heap packet the tests mutate independently (the simulation copies
// through its pool, Pool.Clone).
func (p *Packet) Clone() *Packet {
	p.checkLive("Clone")
	c := *p
	// The copy is heap-owned regardless of p's provenance: it shares no
	// buffers with p's pool slot, so it must not inherit the back
	// pointer (or the sanitizer's generation pin) either.
	c.pooled, c.block, c.dbg = false, nil, poolDebug{}
	if p.TPP != nil {
		c.TPP = p.TPP.Clone()
	}
	if p.IP != nil {
		ip := *p.IP
		ip.Options = append([]byte(nil), p.IP.Options...)
		c.IP = &ip
	}
	if p.UDP != nil {
		u := *p.UDP
		c.UDP = &u
	}
	c.Payload = append([]byte(nil), p.Payload...)
	return &c
}

func TestMACBasics(t *testing.T) {
	m := MACFromUint64(0x0000123456789abc)
	if got := m.String(); got != "12:34:56:78:9a:bc" {
		t.Errorf("String() = %q", got)
	}
	if m.Uint64() != 0x123456789abc {
		t.Errorf("Uint64() = %#x", m.Uint64())
	}
	if m.IsBroadcast() {
		t.Error("unicast reported as broadcast")
	}
	if !BroadcastMAC.IsBroadcast() {
		t.Error("broadcast not recognized")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: MACFromUint64(1), Src: MACFromUint64(2), Type: EtherTypeTPP}
	wire := e.AppendTo(nil)
	if len(wire) != EthernetHeaderLen {
		t.Fatalf("header length %d", len(wire))
	}
	var out Ethernet
	n, err := ParseEthernet(wire, &out)
	if err != nil || n != EthernetHeaderLen || out != e {
		t.Fatalf("round trip: %+v err=%v n=%d", out, err, n)
	}
	if _, err := ParseEthernet(wire[:10], &out); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4{TOS: 0x10, TotalLen: 128, ID: 7, TTL: 64, Proto: ProtoUDP,
		Src: IPv4Addr(10, 0, 0, 1), Dst: IPv4Addr(10, 0, 1, 2)}
	wire := h.AppendTo(nil)
	var out IPv4
	n, err := ParseIPv4(wire, &out)
	if err != nil || n != IPv4HeaderLen {
		t.Fatalf("parse: n=%d err=%v", n, err)
	}
	if out.TOS != h.TOS || out.TotalLen != h.TotalLen || out.ID != h.ID ||
		out.TTL != h.TTL || out.Proto != h.Proto || out.Src != h.Src || out.Dst != h.Dst {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, h)
	}
	// Corrupt one byte: the checksum must catch it.
	wire[16] ^= 0x40
	if _, err := ParseIPv4(wire, &out); err == nil {
		t.Error("corrupted header accepted")
	}
}

func TestIPv4AddrFormatting(t *testing.T) {
	ip := IPv4Addr(192, 168, 1, 200)
	if ip != 0xC0A801C8 {
		t.Errorf("IPv4Addr(192, 168, 1, 200) = %#08x", ip)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 5000, DstPort: 53, Length: 20}
	wire := u.AppendTo(nil)
	var out UDP
	if n, err := ParseUDP(wire, &out); err != nil || n != UDPHeaderLen || out != u {
		t.Fatalf("round trip: %+v err=%v", out, err)
	}
	if _, err := ParseUDP(wire[:4], &out); err == nil {
		t.Error("truncated header accepted")
	}
}

func samplePacket() *Packet {
	tpp := NewTPP(AddrStack, []Instruction{
		{Op: OpPUSH, A: 0x200}, // PUSH [Queue:QueueSize]
	}, 8)
	return &Packet{
		Eth: Ethernet{Dst: MACFromUint64(2), Src: MACFromUint64(1), Type: EtherTypeTPP},
		TPP: tpp,
		IP: &IPv4{TTL: 64, Proto: ProtoUDP,
			Src: IPv4Addr(10, 0, 0, 1), Dst: IPv4Addr(10, 0, 0, 2)},
		UDP:     &UDP{SrcPort: 9000, DstPort: 9001},
		Payload: []byte("probe"),
	}
}

// TestMetadataSize pins the per-packet registers at 40 bytes.  The
// parser's wire-length stamp fills the padding hole between AltRoutes
// and EnqueuedAt, so carrying it grew no Packet: every pooled block and
// every fresh packet a sweep builds holds one.
func TestMetadataSize(t *testing.T) {
	if got := unsafe.Sizeof(Metadata{}); got != 40 {
		t.Fatalf("core.Metadata is %d bytes, want 40", got)
	}
}

func TestPacketSerializeDecode(t *testing.T) {
	p := samplePacket()
	wire := p.Serialize()
	if len(wire) != p.WireLen() {
		t.Fatalf("wire length %d != WireLen %d", len(wire), p.WireLen())
	}
	out, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.Eth != p.Eth {
		t.Errorf("eth mismatch: %+v", out.Eth)
	}
	if out.TPP == nil || out.TPP.MemWords() != 8 || len(out.TPP.Ins) != 1 {
		t.Fatalf("TPP mismatch: %+v", out.TPP)
	}
	if out.IP == nil || out.IP.Src != p.IP.Src || out.IP.Dst != p.IP.Dst {
		t.Fatalf("IP mismatch: %+v", out.IP)
	}
	if out.UDP == nil || out.UDP.DstPort != 9001 {
		t.Fatalf("UDP mismatch: %+v", out.UDP)
	}
	if string(out.Payload) != "probe" {
		t.Fatalf("payload mismatch: %q", out.Payload)
	}
}

func TestPacketSerializeFillsLengths(t *testing.T) {
	p := samplePacket()
	wire := p.Serialize()
	out, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	wantIP := uint16(IPv4HeaderLen + UDPHeaderLen + len(p.Payload))
	if out.IP.TotalLen != wantIP {
		t.Errorf("IP TotalLen = %d, want %d", out.IP.TotalLen, wantIP)
	}
	wantUDP := uint16(UDPHeaderLen + len(p.Payload))
	if out.UDP.Length != wantUDP {
		t.Errorf("UDP Length = %d, want %d", out.UDP.Length, wantUDP)
	}
}

func TestPacketPadLenAccounting(t *testing.T) {
	p := &Packet{
		Eth:    Ethernet{Type: EtherTypeIPv4},
		IP:     &IPv4{TTL: 1, Proto: ProtoUDP},
		UDP:    &UDP{},
		PadLen: 1000,
	}
	if got, want := p.WireLen(), EthernetHeaderLen+IPv4HeaderLen+UDPHeaderLen+1000; got != want {
		t.Fatalf("WireLen = %d, want %d", got, want)
	}
	wire := p.Serialize()
	if len(wire) != p.WireLen() {
		t.Fatalf("serialized %d bytes, want %d", len(wire), p.WireLen())
	}
}

func TestPacketCloneIndependence(t *testing.T) {
	p := samplePacket()
	c := p.Clone()
	c.TPP.SetWord(0, 77)
	c.IP.TTL = 1
	c.UDP.DstPort = 1
	c.Payload[0] = 'X'
	c.Meta.OutPort = 9
	if p.TPP.Word(0) == 77 || p.IP.TTL == 1 || p.UDP.DstPort == 1 ||
		p.Payload[0] == 'X' || p.Meta.OutPort == 9 {
		t.Fatal("Clone shares state with original")
	}
}

func TestDecodePlainTPPNoInner(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{Type: EtherTypeTPP},
		TPP: NewTPP(AddrStack, nil, 4),
	}
	out, err := Decode(p.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if out.TPP == nil || out.IP != nil || out.UDP != nil || len(out.Payload) != 0 {
		t.Fatalf("bare TPP decode: %+v", out)
	}
}

// Property: Serialize followed by Decode preserves the wire image, for
// arbitrary combinations of layers.
func TestPacketRoundTripQuick(t *testing.T) {
	f := func(seed int64, hasTPP, hasIP, hasUDP bool, payLen uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := &Packet{Eth: Ethernet{Dst: MACFromUint64(uint64(r.Int63())),
			Src: MACFromUint64(uint64(r.Int63()))}}
		if hasTPP {
			p.Eth.Type = EtherTypeTPP
			p.TPP = NewTPP(AddrStack, randomInstructions(r, r.Intn(6)), r.Intn(10))
			r.Read(p.TPP.Mem)
		} else if hasIP {
			p.Eth.Type = EtherTypeIPv4
		} else {
			// No inner layers at all: treat as opaque IPv4-less frame.
			p.Eth.Type = EtherTypeIPv4
		}
		if hasIP || !hasTPP {
			p.IP = &IPv4{TTL: uint8(r.Intn(255) + 1), Proto: ProtoUDP,
				Src: r.Uint32(), Dst: r.Uint32()}
			if hasUDP {
				p.UDP = &UDP{SrcPort: uint16(r.Uint32()), DstPort: uint16(r.Uint32())}
			} else {
				p.IP.Proto = 250 // unknown proto: payload stays opaque
			}
		}
		if p.IP == nil {
			// A bare TPP carries no opaque payload: anything after the
			// TPP section must begin with an IPv4 header in our stack.
			payLen = 0
		}
		p.Payload = make([]byte, payLen)
		r.Read(p.Payload)
		wire := p.Serialize()
		out, err := Decode(wire)
		if err != nil {
			return false
		}
		// Re-serializing the decoded packet must reproduce the bytes.
		wire2 := out.Serialize()
		return string(wire) == string(wire2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
