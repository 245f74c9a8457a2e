package mem

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// A spelling is one [Namespace:Statistic] mnemonic: the statistic's
// name for word word of namespace ns.
type spelling struct {
	ns   Namespace
	word int
	stat string
}

func (s spelling) name() string { return banks[s.ns].name + ":" + s.stat }

func (s spelling) addr() Addr { return banks[s.ns].base + Addr(s.word) }

// spellings is the mapping the paper says must be "known upfront so
// that the TPP compiler can convert mnemonics ... into addresses",
// shared by the assembler and the disassembler.  A word's canonical
// name, the one NameOf prints, comes first; the paper's other spellings
// follow it as aliases.
var spellings = [...]spelling{
	{NSSwitch, SwitchID, "SwitchID"},
	{NSSwitch, SwitchID, "ID"}, // §2.3 spelling
	{NSSwitch, SwitchNumPorts, "NumPorts"},
	{NSSwitch, SwitchClockLo, "ClockLo"},
	{NSSwitch, SwitchClockHi, "ClockHi"},
	{NSSwitch, SwitchFlowVersion, "FlowTableVersion"},
	{NSSwitch, SwitchL2Size, "L2TableSize"},
	{NSSwitch, SwitchL3Size, "L3TableSize"},
	{NSSwitch, SwitchTCAMSize, "TCAMSize"},
	{NSSwitch, SwitchPackets, "PacketsSwitched"},
	{NSSwitch, SwitchTPPs, "TPPsExecuted"},
	{NSSwitch, SwitchEpoch, "Epoch"},

	// Port / link namespace (context-relative to the egress port).
	{NSPort, PortQueueSize, "QueueSize"},
	{NSPort, PortRXUtil, "RX-Utilization"},
	{NSPort, PortTXUtil, "TX-Utilization"},
	{NSPort, PortRXBytes, "RX-Bytes"},
	{NSPort, PortTXBytes, "TX-Bytes"},
	{NSPort, PortDropBytes, "Drop-Bytes"},
	{NSPort, PortEnqBytes, "Enq-Bytes"},
	{NSPort, PortCapacity, "Capacity"},
	{NSPort, PortSNR, "SNR"},
	{NSPort, PortScratchBase, "RCP-RateRegister"},
	{NSPort, PortScratchBase, "Scratch0"},
	{NSPort, PortScratchBase + 1, "Scratch1"},
	{NSPort, PortScratchBase + 2, "Scratch2"},
	{NSPort, PortScratchBase + 3, "Scratch3"},

	// Queue namespace (context-relative to the egress queue).
	{NSQueue, QueueBytes, "QueueSize"},
	{NSQueue, QueueBytes, "BytesEnqueued"},
	{NSQueue, QueueDropBytes, "BytesDropped"},
	{NSQueue, QueuePackets, "Packets"},
	{NSQueue, QueueDropPackets, "PacketsDropped"},
	{NSQueue, QueueMaxBytes, "MaxBytes"},

	{NSPacket, PacketInputPort, "InputPort"},
	{NSPacket, PacketOutputPort, "OutputPort"},
	{NSPacket, PacketMatchedID, "MatchedEntryID"},
	{NSPacket, PacketMatchedVer, "MatchedEntryVersion"},
	{NSPacket, PacketQueueID, "QueueID"},
	{NSPacket, PacketAltRoutes, "AlternateRoutes"},
	{NSPacket, PacketUIDLo, "UIDLo"},
	{NSPacket, PacketUIDHi, "UIDHi"},
	{NSPacket, PacketHopLatency, "HopLatency"},
}

// LookupSymbol resolves a [Namespace:Statistic] mnemonic (without the
// brackets) to its virtual address.  Lookup is case-sensitive, matching
// the paper's spelling conventions.
func LookupSymbol(name string) (Addr, bool) {
	ns, stat, _ := strings.Cut(name, ":")
	for _, s := range spellings {
		if s.stat == stat && banks[s.ns].name == ns {
			return s.addr(), true
		}
	}
	return 0, false
}

// NameOf returns the canonical mnemonic for address a, or a hex literal
// ("0x123") when a has no symbolic name.
func NameOf(a Addr) string {
	for _, s := range spellings {
		if s.addr() == a {
			return s.name()
		}
	}
	if i := SRAMIndex(a); i >= 0 {
		return fmt.Sprintf("SRAM:%#x", i)
	}
	if NamespaceOf(a) == NSPortAbs {
		port, stat := PortAbsDecode(a)
		return fmt.Sprintf("Port%d:%#x", port, stat)
	}
	return fmt.Sprintf("%#x", uint16(a))
}

// A Symbol is one mnemonic of the memory map, as Table 2 lists it.
type Symbol struct {
	Name     string
	Addr     Addr
	Writable bool
}

// Symbols returns every mnemonic, aliases included, sorted by name.
func Symbols() []Symbol {
	syms := make([]Symbol, len(spellings))
	for i, s := range spellings {
		syms[i] = Symbol{Name: s.name(), Addr: s.addr(), Writable: Writable(s.addr())}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
	return syms
}

// parseIndex parses an address, SRAM offset, port or statistic number:
// unsigned digits in base (0: decimal or prefixed, as in Go source)
// making up the whole string, no sign.
func parseIndex(s string, base int) (int, bool) {
	n, err := strconv.ParseUint(s, base, 32)
	return int(n), err == nil
}

// ParseSymbolOrAddr resolves either a mnemonic, an "SRAM:<offset>" or
// "Port<p>:<stat>" locator, or a bare hex/decimal word address.  Numbers
// are parsed whole: a sign or trailing garbage is an error, not ignored.
func ParseSymbolOrAddr(s string) (Addr, error) {
	if a, ok := LookupSymbol(s); ok {
		return a, nil
	}
	if rest, ok := strings.CutPrefix(s, "SRAM:"); ok {
		off, ok := parseIndex(rest, 0)
		if !ok {
			return 0, fmt.Errorf("mem: bad SRAM offset %q", rest)
		}
		if off >= SRAMWords {
			return 0, fmt.Errorf("mem: SRAM offset %d out of range", off)
		}
		return SRAMBase + Addr(off), nil
	}
	if rest, ok := strings.CutPrefix(s, "Port"); ok {
		p, st, _ := strings.Cut(rest, ":")
		port, pok := parseIndex(p, 10)
		stat, sok := parseIndex(st, 0)
		if pok && sok {
			if port >= MaxPorts || stat >= PortAbsStride {
				return 0, fmt.Errorf("mem: port window %q out of range", s)
			}
			return PortAbs(port, stat), nil
		}
	}
	a, ok := parseIndex(s, 0)
	if !ok || a >= AddrSpaceWords {
		return 0, fmt.Errorf("mem: unknown symbol or address %q", s)
	}
	return Addr(a), nil
}
