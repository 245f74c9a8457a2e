package core

import (
	"bytes"
	"testing"
)

// recordRoute2 is a raw IPv4 Record Route option with two slots, the
// first filled with 0xAABBCCDD: type 7, length 11, pointer 8 (the next
// free slot), padded to 12 bytes with End-of-Options.
var recordRoute2 = []byte{7, 11, 8, 0xAA, 0xBB, 0xCC, 0xDD, 0, 0, 0, 0, 0}

func TestIPv4OptionsRoundTrip(t *testing.T) {
	h := IPv4{TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2,
		Options: bytes.Clone(recordRoute2)}
	wire := h.AppendTo(nil)
	if len(wire) != h.HeaderLen() {
		t.Fatalf("serialized %d bytes, header len %d", len(wire), h.HeaderLen())
	}
	var out IPv4
	n, err := ParseIPv4(wire, &out)
	if err != nil || n != h.HeaderLen() {
		t.Fatalf("parse: n=%d err=%v", n, err)
	}
	if !bytes.Equal(out.Options, recordRoute2) {
		t.Fatalf("options after round trip: % x, want % x", out.Options, recordRoute2)
	}
}

func TestIPv4PacketWithOptionsRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: Ethernet{Type: EtherTypeIPv4},
		IP: &IPv4{TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2,
			Options: make([]byte, MaxIPv4Options)},
		UDP:     &UDP{SrcPort: 1, DstPort: 2},
		Payload: []byte("hi"),
	}
	copy(p.IP.Options, recordRoute2)
	wire := p.Serialize()
	if len(wire) != p.WireLen() {
		t.Fatalf("wire %d != WireLen %d", len(wire), p.WireLen())
	}
	out, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.IP.Options, p.IP.Options) {
		t.Fatal("options lost in decode")
	}
	if string(out.Payload) != "hi" {
		t.Fatalf("payload: %q", out.Payload)
	}
}

func TestMalformedOptionsPanicOnSerialize(t *testing.T) {
	h := IPv4{Options: []byte{1, 2, 3}} // unaligned
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.AppendTo(nil)
}
