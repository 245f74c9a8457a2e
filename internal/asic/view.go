package asic

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
)

// view is the per-packet window onto the switch's unified memory map
// (§3.2.1).  Context-relative namespaces resolve against the packet's
// selected egress port and queue: "to the ASIC, the address 0xb000
// refers to the queue size on the link the packet will be sent out".
type view struct {
	sw   *Switch
	pkt  *core.Packet
	port *Port
}

var _ mem.View = (*view)(nil)

// Load implements mem.View.
func (v *view) Load(a mem.Addr) (uint32, error) {
	switch mem.NamespaceOf(a) {
	case mem.NSSwitch:
		if i := int(a - mem.SwitchBase); i < mem.SwitchStatWords {
			return v.switchStat(i), nil
		}
	case mem.NSPort:
		if i := int(a - mem.PortBase); i < mem.PortStatWords {
			return portStat(v.port, i), nil
		}
	case mem.NSQueue:
		if i := int(a - mem.QueueBase); i < mem.QueueStatWords {
			return v.queueStat(i), nil
		}
	case mem.NSPacket:
		if i := int(a - mem.PacketBase); i < mem.PacketStatWords {
			return v.packetStat(i), nil
		}
	case mem.NSSRAM:
		return v.sw.sram[mem.SRAMIndex(a)], nil
	case mem.NSPortAbs:
		port, stat := mem.PortAbsDecode(a)
		if port < len(v.sw.ports) && stat < mem.PortStatWords {
			return portStat(v.sw.ports[port], stat), nil
		}
	}
	return 0, mem.ErrUnmapped(a, false)
}

// storeWord returns the register a TPP store to a writes, or the fault
// mem.StoreFault decides for it.
func (v *view) storeWord(a mem.Addr) (*uint32, error) {
	if f := mem.StoreFault(a, len(v.sw.ports)); f != 0 {
		return nil, &mem.AccessError{Addr: a, Write: true, Cause: f}
	}
	switch mem.NamespaceOf(a) {
	case mem.NSSRAM:
		return &v.sw.sram[mem.SRAMIndex(a)], nil
	case mem.NSPort:
		return &v.port.scratch[int(a-mem.PortBase)-mem.PortScratchBase], nil
	}
	port, stat := mem.PortAbsDecode(a)
	return &v.sw.ports[port].scratch[stat-mem.PortScratchBase], nil
}

// Store implements mem.View, enforcing the protection map.
func (v *view) Store(a mem.Addr, val uint32) error {
	w, err := v.storeWord(a)
	if err == nil {
		*w = val
	}
	return err
}

// CondStore implements the linearizable compare-and-store behind
// CSTORE.  The load and the store are one atomic step because a packet
// is one simulator event and events run to completion, one at a time:
// no other TPP's access can fall between them.
func (v *view) CondStore(a mem.Addr, cond, val uint32) (uint32, error) {
	w, err := v.storeWord(a)
	if err != nil {
		return 0, err
	}
	old := *w
	if old == cond {
		*w = val
		// One commit, one count and one span, so the in-band telemetry
		// plane can reconcile every applied dataplane update against
		// what its sweeps later collect.
		v.sw.cstores++
		v.sw.span(v.pkt, obs.StageCStore, uint64(a), uint64(val))
	}
	return old, nil
}

// The per-statistic reads below are the memory map's one semantic
// switch, as tcpu.exec is the ISA's: Load bounds idx by mem's word
// counts, so each covers every mapped word of its namespace.

func (v *view) switchStat(idx int) uint32 {
	s := v.sw
	switch idx {
	case mem.SwitchID:
		return s.cfg.ID
	case mem.SwitchNumPorts:
		return uint32(len(s.ports))
	case mem.SwitchClockLo:
		return uint32(uint64(s.sim.Now()))
	case mem.SwitchClockHi:
		return uint32(uint64(s.sim.Now()) >> 32)
	case mem.SwitchFlowVersion:
		return s.tcam.Version()
	case mem.SwitchL2Size:
		return uint32(s.l2.Size())
	case mem.SwitchL3Size:
		return uint32(s.l3.Size())
	case mem.SwitchTCAMSize:
		return uint32(s.tcam.Size())
	case mem.SwitchPackets:
		return uint32(s.packets)
	case mem.SwitchTPPs:
		return uint32(s.tppsExecuted)
	}
	return s.epoch // mem.SwitchEpoch, the last word
}

// portStat reads per-port statistic word idx of p, for the context-
// relative Link namespace and the absolute window alike.
func portStat(p *Port, idx int) uint32 {
	switch idx {
	case mem.PortQueueSize:
		return uint32(p.QueueBytes())
	case mem.PortRXUtil:
		return p.rxUtil.Rate()
	case mem.PortTXUtil:
		return p.txUtil.Rate()
	case mem.PortRXBytes:
		return uint32(p.rxBytesNow())
	case mem.PortTXBytes:
		return uint32(p.txBytes)
	case mem.PortDropBytes:
		return uint32(p.DropBytes())
	case mem.PortEnqBytes:
		return uint32(p.EnqBytes())
	case mem.PortCapacity:
		if p.ch == nil {
			return 0
		}
		return p.ch.RateBytes()
	case mem.PortSNR:
		return p.snr
	}
	return p.scratch[idx-mem.PortScratchBase] // the task scratch words
}

func (v *view) queueStat(idx int) uint32 {
	q := &v.port.queue
	switch idx {
	case mem.QueueBytes:
		return uint32(q.Bytes())
	case mem.QueueDropBytes:
		return uint32(q.DropBytes)
	case mem.QueuePackets:
		return uint32(q.EnqPkts)
	case mem.QueueDropPackets:
		return uint32(q.DropPkts)
	}
	return uint32(q.CapBytes()) // mem.QueueMaxBytes, the last word
}

func (v *view) packetStat(idx int) uint32 {
	m := &v.pkt.Meta
	switch idx {
	case mem.PacketInputPort:
		return m.InPort
	case mem.PacketOutputPort:
		return m.OutPort
	case mem.PacketMatchedID:
		return m.MatchedEntry
	case mem.PacketMatchedVer:
		return m.MatchedVer
	case mem.PacketQueueID:
		return 0 // every port has one egress queue
	case mem.PacketAltRoutes:
		return m.AltRoutes
	case mem.PacketUIDLo:
		return uint32(m.UID)
	case mem.PacketUIDHi:
		return uint32(m.UID >> 32)
	}
	return uint32(int64(v.sw.sim.Now()) - m.EnqueuedAt) // mem.PacketHopLatency, the last word
}

// ViewForTesting builds a memory view bound to outPort with the given
// packet context, so tests and experiment harnesses can read registers
// the way a TPP would without sending one.
func (s *Switch) ViewForTesting(pkt *core.Packet, outPort int) mem.View {
	if pkt == nil {
		pkt = &core.Packet{Meta: core.Metadata{OutPort: uint32(outPort), EnqueuedAt: int64(s.sim.Now())}}
	}
	return &view{sw: s, pkt: pkt, port: s.ports[outPort]}
}

// ReadWord is the control plane's read-back path: it reads one word of
// the unified memory map through the same per-packet view machinery a
// collect TPP's LOAD resolves through, so a controller verifying its
// writes observes exactly what the dataplane would report — the epoch
// word, table sizes, SRAM contents — never a cached copy.  Context-
// relative Port and Queue addresses resolve against port 0, and packet
// metadata against a synthetic zero packet.  ok is false for unmapped
// addresses and while the switch is booting: a switch that is dark to
// the dataplane answers no read-back either, which is how a controller
// tells "mid-boot" apart from "epoch raced".
func (s *Switch) ReadWord(a mem.Addr) (uint32, bool) {
	if s.booting {
		return 0, false
	}
	pkt := core.Packet{Meta: core.Metadata{EnqueuedAt: int64(s.sim.Now())}}
	v := view{sw: s, pkt: &pkt, port: s.ports[0]}
	val, err := v.Load(a)
	if err != nil {
		return 0, false
	}
	return val, true
}
