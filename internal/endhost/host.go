package endhost

import (
	"slices"

	"repro/internal/core"
	"repro/internal/netsim"
)

// ProbeEchoPort is the UDP port TPP probes target; hosts answer probes
// arriving here with an echo of the executed program ("the receiver
// simply echos a fully executed TPP back to the sender", §2.2).
const ProbeEchoPort = 7070

// EchoReplyPort is the UDP port probe echoes come back on.
const EchoReplyPort = 7071

// Handler consumes a received packet.
type Handler func(pkt *core.Packet)

// handler is one entry of a host's demultiplexing table: the function
// and whether it only borrows the packet (Sink) or keeps it (Handle).
type handler struct {
	fn   Handler
	sink bool
}

// Host is a simulated end-host.
type Host struct {
	Sim *netsim.Sim
	MAC core.MAC
	IP  uint32
	NIC *NIC

	handlers map[uint16]handler
	fallback Handler

	// uidBase makes packet UIDs unique network-wide, not just per
	// host, so lifecycle traces from different sources never collide:
	// the low 24 MAC bits occupy the top of the UID and a per-host
	// sequence number the bottom 40 bits.
	uidBase uint64
	nextUID uint64

	// Received counts delivered packets (after echo handling).
	Received uint64
	// EchoesSent counts probe echoes generated.
	EchoesSent uint64
}

// NewHost builds a host; wire its NIC with Host.NIC.Attach.
func NewHost(sim *netsim.Sim, mac core.MAC, ip uint32) *Host {
	return &Host{
		Sim:      sim,
		MAC:      mac,
		IP:       ip,
		NIC:      NewNIC(0),
		handlers: make(map[uint16]handler),
		uidBase:  (mac.Uint64() & 0xFFFFFF) << 40,
	}
}

// Handle registers a handler for a UDP destination port.  The handler
// owns what it is given: the host adopts the packet first, so fn may
// keep it, and its buffers, for as long as it likes.
func (h *Host) Handle(port uint16, fn Handler) { h.handlers[port] = handler{fn: fn} }

// Sink registers a handler for a UDP destination port that only borrows
// the packet: the host returns it to the packet pool the moment fn
// returns, so fn must not keep the packet or any of its buffers.  The
// receivers of bulk flows, which read a header word and count bytes,
// and the prober, which decodes every echo into a program of its own,
// are sinks; that is what lets a sender's pooled packets come back.
func (h *Host) Sink(port uint16, fn Handler) { h.handlers[port] = handler{fn: fn, sink: true} }

// HandleDefault registers the handler for everything else; like Handle,
// it owns what it is given.
func (h *Host) HandleDefault(fn Handler) { h.fallback = fn }

// Receive implements netsim.Receiver.  Delivery ends the fabric's
// ownership of the packet, and the host decides what follows: a
// retaining handler gets an adopted packet, everything else — a sink's
// packet once it has been read, an executed probe once its echo is
// built, a delivery nobody handles — goes back to the pool.  (Recycle
// and Adopt are no-ops on a packet that was never pooled.)
//
//alloc:free
func (h *Host) Receive(pkt *core.Packet, port int) {
	_ = port
	// Echo executed TPP probes transparently, before demultiplexing:
	// this is the paper's receiver behavior for the collect phase.
	if pkt.TPP != nil && pkt.UDP != nil && pkt.UDP.DstPort == ProbeEchoPort {
		h.echoProbe(pkt)
		pkt.Recycle()
		return
	}
	h.Received++
	if pkt.UDP != nil {
		if e, ok := h.handlers[pkt.UDP.DstPort]; ok {
			if e.sink {
				e.fn(pkt)
				pkt.Recycle()
				return
			}
			pkt.Adopt()
			e.fn(pkt)
			return
		}
	}
	if h.fallback != nil {
		pkt.Adopt()
		h.fallback(pkt)
		return
	}
	pkt.Recycle()
}

// echoProbe returns the executed TPP to the prober.  The echo carries
// the TPP serialized inside an ordinary UDP payload so the network does
// not execute it a second time on the reverse path.
func (h *Host) echoProbe(pkt *core.Packet) {
	if pkt.IP == nil {
		return
	}
	// The echo is a pooled block: its payload buffer, grown at most once
	// here, takes the serialised program and the probe cookie after it.
	echo := h.NewPacketPooled(pkt.Eth.Src, pkt.IP.Src, ProbeEchoPort, EchoReplyPort, 0)
	echo.Payload = slices.Grow(echo.Payload, pkt.TPP.WireLen()+len(pkt.Payload))
	echo.Payload = pkt.TPP.AppendTo(echo.Payload)
	echo.Payload = append(echo.Payload, pkt.Payload...)
	h.EchoesSent++
	h.NIC.Send(echo)
}

func (h *Host) uid() uint64 {
	h.nextUID++
	return h.uidBase | h.nextUID
}

// NextUID allocates a network-unique packet UID from this host's space,
// for callers that build packets by hand (controllers, injectors) so
// their packets remain distinguishable in lifecycle traces.
func (h *Host) NextUID() uint64 { return h.uid() }

// NewPacket builds a unicast data packet from this host.  The packet
// is the caller's: sending it gives nothing up, and the fabric never
// reuses it.
func (h *Host) NewPacket(dstMAC core.MAC, dstIP uint32, srcPort, dstPort uint16, payloadLen int) *core.Packet {
	pkt := core.NewUDPPacket(
		core.Ethernet{Dst: dstMAC, Src: h.MAC, Type: core.EtherTypeIPv4},
		core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h.IP, Dst: dstIP},
		core.UDP{SrcPort: srcPort, DstPort: dstPort},
	)
	pkt.PadLen = payloadLen
	pkt.Meta = core.Metadata{UID: h.uid()}
	return pkt
}

// NewPacketPooled builds the packet NewPacket builds (same fields, same
// UID sequence) in a block drawn from the simulation's packet pool.
// The caller must Send it and forget it: from the send on the packet
// belongs to whatever holds it last, which returns the block.
func (h *Host) NewPacketPooled(dstMAC core.MAC, dstIP uint32, srcPort, dstPort uint16, payloadLen int) *core.Packet {
	pkt := h.Sim.Pool().NewUDP(
		core.Ethernet{Dst: dstMAC, Src: h.MAC, Type: core.EtherTypeIPv4},
		core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h.IP, Dst: dstIP},
		core.UDP{SrcPort: srcPort, DstPort: dstPort},
	)
	pkt.PadLen = payloadLen
	pkt.Meta = core.Metadata{UID: h.uid()}
	return pkt
}

// NewProbePooled builds a TPP packet from this host carrying a copy of
// tpp (same UID sequence as NewPacket) in a block drawn from the
// simulation's packet pool.  The packet owns its copy — the network
// executes and mutates it — and tpp stays the caller's, untouched by
// the send, the NIC or the fabric.  Like NewPacketPooled, the caller
// must Send the packet and forget it.
func (h *Host) NewProbePooled(dstMAC core.MAC, dstIP uint32, srcPort, dstPort uint16, tpp *core.TPP) *core.Packet {
	pkt := h.Sim.Pool().NewTPP(
		core.Ethernet{Dst: dstMAC, Src: h.MAC, Type: core.EtherTypeTPP},
		core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: h.IP, Dst: dstIP},
		core.UDP{SrcPort: srcPort, DstPort: dstPort},
		tpp,
	)
	pkt.Meta = core.Metadata{UID: h.uid()}
	return pkt
}

// Send queues a packet on the NIC.
func (h *Host) Send(pkt *core.Packet) bool { return h.NIC.Send(pkt) }

// Broadcast sends a zero-payload broadcast frame, the cheap way to
// prime L2 learning tables with this host's location.
func (h *Host) Broadcast() bool {
	return h.Send(&core.Packet{
		Eth: core.Ethernet{Dst: core.BroadcastMAC, Src: h.MAC, Type: core.EtherTypeIPv4},
		IP: &core.IPv4{TTL: 64, Proto: core.ProtoUDP,
			Src: h.IP, Dst: core.IPv4Addr(255, 255, 255, 255)},
		UDP:  &core.UDP{SrcPort: 1, DstPort: 1},
		Meta: core.Metadata{UID: h.uid()},
	})
}
