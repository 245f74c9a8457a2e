package asic

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
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

var _ interface {
	mem.View
	CondStore(mem.Addr, uint32, uint32) (uint32, error)
} = (*view)(nil)

// Load implements mem.View.
func (v *view) Load(a mem.Addr) (uint32, error) {
	switch mem.NamespaceOf(a) {
	case mem.NSSwitch:
		if val, ok := v.switchStat(int(a - mem.SwitchBase)); ok {
			return val, nil
		}
	case mem.NSPort:
		if val, ok := v.port.stat(int(a - mem.PortBase)); ok {
			return val, nil
		}
	case mem.NSQueue:
		if val, ok := v.queueStat(int(a - mem.QueueBase)); ok {
			return val, nil
		}
	case mem.NSPacket:
		if val, ok := v.packetStat(int(a - mem.PacketBase)); ok {
			return val, nil
		}
	case mem.NSSRAM:
		return v.sw.sram[mem.SRAMIndex(a)], nil
	case mem.NSPortAbs:
		port, stat := mem.PortAbsDecode(a)
		if port < len(v.sw.ports) {
			if val, ok := v.sw.ports[port].stat(stat); ok {
				return val, nil
			}
		}
	}
	return 0, mem.ErrUnmapped(a, false)
}

// Store implements mem.View, enforcing the protection map.
func (v *view) Store(a mem.Addr, val uint32) error {
	if !mem.Writable(a) {
		if _, err := v.Load(a); err != nil {
			return mem.ErrUnmapped(a, true)
		}
		return mem.ErrReadOnly(a)
	}
	switch mem.NamespaceOf(a) {
	case mem.NSSRAM:
		v.sw.sram[mem.SRAMIndex(a)] = val
		return nil
	case mem.NSPort:
		v.port.scratch[int(a-mem.PortBase)-mem.PortScratchBase] = val
		return nil
	case mem.NSPortAbs:
		port, stat := mem.PortAbsDecode(a)
		if port >= len(v.sw.ports) {
			return mem.ErrUnmapped(a, true)
		}
		v.sw.ports[port].scratch[stat-mem.PortScratchBase] = val
		return nil
	}
	return mem.ErrUnmapped(a, true)
}

// CondStore implements the linearizable compare-and-store behind
// CSTORE.  The load and the store are one atomic step because a packet
// is one simulator event and events run to completion, one at a time:
// no other TPP's access can fall between them.
func (v *view) CondStore(a mem.Addr, cond, val uint32) (uint32, error) {
	if !mem.Writable(a) {
		if _, err := v.Load(a); err != nil {
			return 0, mem.ErrUnmapped(a, true)
		}
		return 0, mem.ErrReadOnly(a)
	}
	old, err := v.Load(a)
	if err != nil {
		return 0, err
	}
	if old == cond {
		if err := v.Store(a, val); err != nil {
			return 0, err
		}
		// One commit, one count and one span, so the in-band telemetry
		// plane can reconcile every applied dataplane update against
		// what its sweeps later collect.
		v.sw.cstores++
		v.sw.span(v.pkt, obs.StageCStore, uint64(a), uint64(val))
	}
	return old, nil
}

func (v *view) switchStat(idx int) (uint32, bool) {
	s := v.sw
	switch idx {
	case mem.SwitchID:
		return s.cfg.ID, true
	case mem.SwitchNumPorts:
		return uint32(len(s.ports)), true
	case mem.SwitchClockLo:
		return uint32(uint64(s.sim.Now())), true
	case mem.SwitchClockHi:
		return uint32(uint64(s.sim.Now()) >> 32), true
	case mem.SwitchFlowVersion:
		return s.tcam.Version(), true
	case mem.SwitchL2Size:
		return uint32(s.l2.Size()), true
	case mem.SwitchL3Size:
		return uint32(s.l3.Size()), true
	case mem.SwitchTCAMSize:
		return uint32(s.tcam.Size()), true
	case mem.SwitchPackets:
		return uint32(s.packets), true
	case mem.SwitchTPPs:
		return uint32(s.tppsExecuted), true
	case mem.SwitchEpoch:
		return s.epoch, true
	}
	return 0, false
}

func (v *view) queueStat(idx int) (uint32, bool) {
	q := v.port.queues[v.pkt.Meta.QueueID]
	switch idx {
	case mem.QueueBytes:
		return uint32(q.Bytes()), true
	case mem.QueueDropBytes:
		return uint32(q.DropBytes), true
	case mem.QueuePackets:
		return uint32(q.EnqPkts), true
	case mem.QueueDropPackets:
		return uint32(q.DropPkts), true
	case mem.QueueMaxBytes:
		return uint32(q.CapBytes()), true
	}
	return 0, false
}

func (v *view) packetStat(idx int) (uint32, bool) {
	m := &v.pkt.Meta
	switch idx {
	case mem.PacketInputPort:
		return m.InPort, true
	case mem.PacketOutputPort:
		return m.OutPort, true
	case mem.PacketMatchedID:
		return m.MatchedEntry, true
	case mem.PacketMatchedVer:
		return m.MatchedVer, true
	case mem.PacketQueueID:
		return m.QueueID, true
	case mem.PacketAltRoutes:
		return m.AltRoutes, true
	case mem.PacketUIDLo:
		return uint32(m.UID), true
	case mem.PacketUIDHi:
		return uint32(m.UID >> 32), true
	case mem.PacketHopLatency:
		return uint32(int64(v.sw.sim.Now()) - m.EnqueuedAt), true
	}
	return 0, false
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

// Now exposes the switch's dataplane clock for tests.
func (s *Switch) Now() netsim.Time { return s.sim.Now() }

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
