package mem

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// symbols maps the [Namespace:Statistic] mnemonics used in TPP assembly
// to virtual addresses.  The table is what the paper calls the mapping
// "known upfront so that the TPP compiler can convert mnemonics ... into
// addresses".  Aliases cover the paper's own spellings.
var symbols = map[string]Addr{
	// Switch namespace.
	"Switch:SwitchID":         SwitchBase + SwitchID,
	"Switch:ID":               SwitchBase + SwitchID, // §2.3 spelling
	"Switch:NumPorts":         SwitchBase + SwitchNumPorts,
	"Switch:ClockLo":          SwitchBase + SwitchClockLo,
	"Switch:ClockHi":          SwitchBase + SwitchClockHi,
	"Switch:FlowTableVersion": SwitchBase + SwitchFlowVersion,
	"Switch:L2TableSize":      SwitchBase + SwitchL2Size,
	"Switch:L3TableSize":      SwitchBase + SwitchL3Size,
	"Switch:TCAMSize":         SwitchBase + SwitchTCAMSize,
	"Switch:PacketsSwitched":  SwitchBase + SwitchPackets,
	"Switch:TPPsExecuted":     SwitchBase + SwitchTPPs,
	"Switch:Epoch":            SwitchBase + SwitchEpoch,

	// Port / link namespace (context-relative to the egress port).
	"Link:QueueSize":        PortBase + PortQueueSize,
	"Link:RX-Utilization":   PortBase + PortRXUtil,
	"Link:TX-Utilization":   PortBase + PortTXUtil,
	"Link:RX-Bytes":         PortBase + PortRXBytes,
	"Link:TX-Bytes":         PortBase + PortTXBytes,
	"Link:Drop-Bytes":       PortBase + PortDropBytes,
	"Link:Enq-Bytes":        PortBase + PortEnqBytes,
	"Link:Capacity":         PortBase + PortCapacity,
	"Link:SNR":              PortBase + PortSNR,
	"Link:RCP-RateRegister": PortBase + PortScratchBase,
	"Link:Scratch0":         PortBase + PortScratchBase,
	"Link:Scratch1":         PortBase + PortScratchBase + 1,
	"Link:Scratch2":         PortBase + PortScratchBase + 2,
	"Link:Scratch3":         PortBase + PortScratchBase + 3,

	// Queue namespace (context-relative to the egress queue).
	"Queue:QueueSize":      QueueBase + QueueBytes,
	"Queue:BytesEnqueued":  QueueBase + QueueBytes,
	"Queue:BytesDropped":   QueueBase + QueueDropBytes,
	"Queue:Packets":        QueueBase + QueuePackets,
	"Queue:PacketsDropped": QueueBase + QueueDropPackets,
	"Queue:MaxBytes":       QueueBase + QueueMaxBytes,

	// Per-packet metadata namespace.
	"PacketMetadata:InputPort":      PacketBase + PacketInputPort,
	"PacketMetadata:OutputPort":     PacketBase + PacketOutputPort,
	"PacketMetadata:MatchedEntryID": PacketBase + PacketMatchedID,
	"PacketMetadata:MatchedEntryVersion": PacketBase +
		PacketMatchedVer,
	"PacketMetadata:QueueID":         PacketBase + PacketQueueID,
	"PacketMetadata:AlternateRoutes": PacketBase + PacketAltRoutes,
	"PacketMetadata:UIDLo":           PacketBase + PacketUIDLo,
	"PacketMetadata:UIDHi":           PacketBase + PacketUIDHi,
	"PacketMetadata:HopLatency":      PacketBase + PacketHopLatency,
}

// canonical is the preferred reverse mapping for disassembly; built once
// from symbols, keeping the lexicographically smallest name that is not
// an alias duplicate (aliases resolve to the first registered canonical
// spelling below).
var canonical = func() map[Addr]string {
	preferred := []string{
		"Switch:SwitchID", "Link:QueueSize", "Link:RCP-RateRegister",
		"Queue:QueueSize", "PacketMetadata:MatchedEntryID",
	}
	m := make(map[Addr]string)
	names := make([]string, 0, len(symbols))
	for n := range symbols { //lint:allow maporder (sorted before use)
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := symbols[n]
		if _, ok := m[a]; !ok {
			m[a] = n
		}
	}
	for _, n := range preferred {
		m[symbols[n]] = n
	}
	return m
}()

// LookupSymbol resolves a [Namespace:Statistic] mnemonic (without the
// brackets) to its virtual address.  Lookup is case-sensitive, matching
// the paper's spelling conventions.
func LookupSymbol(name string) (Addr, bool) {
	a, ok := symbols[name]
	return a, ok
}

// NameOf returns the canonical mnemonic for address a, or a hex literal
// ("0x123") when a has no symbolic name.
func NameOf(a Addr) string {
	if n, ok := canonical[a]; ok {
		return n
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

// SymbolNames returns all known mnemonics, sorted; used by the assembler
// CLI to print the symbol table.
func SymbolNames() []string {
	names := make([]string, 0, len(symbols))
	for n := range symbols { //lint:allow maporder (sorted before return)
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseSymbolOrAddr resolves either a mnemonic, an "SRAM:<offset>" or
// "Port<p>:<stat>" locator, or a bare hex/decimal word address.  Numbers
// are parsed whole: trailing garbage is an error, not ignored.
func ParseSymbolOrAddr(s string) (Addr, error) {
	if a, ok := LookupSymbol(s); ok {
		return a, nil
	}
	if rest, ok := strings.CutPrefix(s, "SRAM:"); ok {
		off, err := strconv.ParseInt(rest, 0, 64)
		if err != nil {
			return 0, fmt.Errorf("mem: bad SRAM offset %q", rest)
		}
		if off < 0 || off >= SRAMWords {
			return 0, fmt.Errorf("mem: SRAM offset %d out of range", off)
		}
		return SRAMBase + Addr(off), nil
	}
	if rest, ok := strings.CutPrefix(s, "Port"); ok {
		p, st, _ := strings.Cut(rest, ":")
		port, perr := strconv.Atoi(p)
		stat, serr := strconv.ParseInt(st, 0, 0)
		if perr == nil && serr == nil {
			if port < 0 || port >= MaxPorts || stat < 0 || stat >= PortAbsStride {
				return 0, fmt.Errorf("mem: port window %q out of range", s)
			}
			return PortAbs(port, int(stat)), nil
		}
	}
	a, err := strconv.ParseUint(s, 0, 32)
	if err != nil || a >= AddrSpaceWords {
		return 0, fmt.Errorf("mem: unknown symbol or address %q", s)
	}
	return Addr(a), nil
}
