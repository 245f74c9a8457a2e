package mem

import "fmt"

// Addr is a word-granular virtual address into a switch's unified
// memory map.  It matches the 12-bit operand width of TPP instructions,
// so valid addresses are < AddrSpaceWords.
type Addr uint16

// AddrSpaceWords is the number of addressable 32-bit words (12-bit
// operands).
const AddrSpaceWords = 1 << 12

// ByteAddr returns the byte address of a, as printed in the paper's
// examples ("[Queue:QueueSize] will be compiled to a virtual memory
// address (say) 0xb000").
func (a Addr) ByteAddr() uint32 { return uint32(a) * 4 }

// Namespace identifies the memory bank an address falls into (Table 2).
type Namespace uint8

// The namespaces of the unified address space.
const (
	NSInvalid Namespace = iota
	NSSwitch            // per-switch, global
	NSPort              // per-port, context-relative to the egress port
	NSQueue             // per-queue, context-relative to the egress queue
	NSPacket            // per-packet metadata registers
	NSSRAM              // scratch SRAM shared by network tasks
	NSPortAbs           // absolute per-port statistics window
)

// String names the namespace using the paper's terminology.
func (n Namespace) String() string {
	if int(n) >= len(banks) {
		n = NSInvalid
	}
	return banks[n].name
}

// Region boundaries (word addresses).
const (
	SwitchBase  Addr = 0x000
	PortBase    Addr = 0x100
	QueueBase   Addr = 0x200
	PacketBase  Addr = 0x300
	SRAMBase    Addr = 0x400
	SRAMWords        = 0x800 // 2048 words = 8 KiB of scratch SRAM
	PortAbsBase Addr = 0xC00

	// PortAbsStride is the per-port block size in the absolute window:
	// word PortAbsBase + port*PortAbsStride + stat mirrors the
	// context-relative Port namespace word stat.
	PortAbsStride = 32
	// MaxPorts is the largest port count addressable through the
	// absolute window.
	MaxPorts = (AddrSpaceWords - int(PortAbsBase)) / PortAbsStride
)

// Per-switch statistic word indexes (offset from SwitchBase).
const (
	SwitchID          = 0 // administratively assigned switch id
	SwitchNumPorts    = 1
	SwitchClockLo     = 2 // dataplane clock, ns, low 32 bits
	SwitchClockHi     = 3
	SwitchFlowVersion = 4 // flow table version number (ndb, Table 2)
	SwitchL2Size      = 5 // entries in the L2 MAC table
	SwitchL3Size      = 6 // entries in the L3 LPM table
	SwitchTCAMSize    = 7 // entries in the TCAM
	SwitchPackets     = 8 // packets switched (low 32 bits)
	SwitchTPPs        = 9 // TPPs executed by the TCPU
	// SwitchEpoch is the boot generation counter: it starts at zero
	// and increments every time the switch crash-restarts, wiping its
	// soft state (scratch SRAM, learned L2 entries, task scratch
	// words).  Any TPP can read it, which is how end-hosts detect that
	// a switch on the path rebooted and reconcile their view of its
	// state (re-seed rate registers, re-base accounting deltas).
	SwitchEpoch = 10

	SwitchStatWords = 11 // words the Switch namespace maps
)

// Per-port (link) statistic word indexes (offset from PortBase, and from
// each block of the absolute window).  Rates are bytes/second, which
// represents links up to ~34 Gb/s in 32 bits.
const (
	PortQueueSize = 0  // bytes currently enqueued across the port's queues
	PortRXUtil    = 1  // EWMA ingress utilization, bytes/sec
	PortTXUtil    = 2  // EWMA egress utilization, bytes/sec
	PortRXBytes   = 3  // cumulative bytes received (wraps)
	PortTXBytes   = 4  // cumulative bytes transmitted (wraps)
	PortDropBytes = 5  // cumulative bytes dropped at the egress queues
	PortEnqBytes  = 6  // cumulative bytes enqueued
	PortCapacity  = 7  // link capacity, bytes/sec
	PortSNR       = 16 // wireless channel SNR, centi-dB (access points)

	// PortScratchBase..+PortScratchWords-1 are task scratch words that
	// TPPs may write.  Word PortScratchBase is conventionally the RCP
	// fair-share rate register ([Link:RCP-RateRegister]), which
	// rcp.InitRateRegisters seeds.
	PortScratchBase  = 8
	PortScratchWords = 8

	// PortStatWords is the readable per-port block: the named
	// statistics, the task scratch words and the SNR register are
	// contiguous.
	PortStatWords = PortSNR + 1
)

// Per-queue statistic word indexes (offset from QueueBase).
const (
	QueueBytes       = 0 // bytes enqueued right now (occupancy)
	QueueDropBytes   = 1 // cumulative bytes dropped
	QueuePackets     = 2 // cumulative packets enqueued
	QueueDropPackets = 3 // cumulative packets dropped
	QueueMaxBytes    = 4 // configured capacity

	QueueStatWords = 5 // words the Queue namespace maps
)

// Per-packet metadata word indexes (offset from PacketBase).
const (
	PacketInputPort  = 0
	PacketOutputPort = 1
	PacketMatchedID  = 2 // matched flow entry id (ndb)
	PacketMatchedVer = 3 // matched flow entry version (ndb)
	PacketQueueID    = 4
	PacketAltRoutes  = 5
	PacketUIDLo      = 6
	PacketUIDHi      = 7
	PacketHopLatency = 8 // ns spent in this switch so far (low 32 bits)

	PacketStatWords = 9 // words the PacketMetadata namespace maps
)

// A bank is one row of the memory map (Table 2): a namespace's paper
// name, its base address, how many words from the base a register
// backs, and the words [wrLo, wrHi) a TPP may store to.  The absolute
// window repeats the Link row once per port, PortAbsStride words apart.
type bank struct {
	name       string
	base       Addr
	words      int
	wrLo, wrHi int
}

// banks is the memory map, indexed by Namespace.  Every statistics
// word is read-only to TPPs, which "isolates critical forwarding state
// from state modifiable by TPPs" (§4); only the per-port task scratch
// words and scratch SRAM accept stores.
var banks = [...]bank{
	NSInvalid: {name: "Invalid"},
	NSSwitch:  {"Switch", SwitchBase, SwitchStatWords, 0, 0},
	NSPort:    {"Link", PortBase, PortStatWords, PortScratchBase, PortScratchBase + PortScratchWords},
	NSQueue:   {"Queue", QueueBase, QueueStatWords, 0, 0},
	NSPacket:  {"PacketMetadata", PacketBase, PacketStatWords, 0, 0},
	NSSRAM:    {"SRAM", SRAMBase, SRAMWords, 0, SRAMWords},
	NSPortAbs: {"PortAbs", PortAbsBase, PortStatWords, PortScratchBase, PortScratchBase + PortScratchWords},
}

// locate finds a's bank, its port (in the absolute window; 0 elsewhere)
// and its word offset within that port's block or the bank.  It splits
// the window itself, not through PortAbsDecode, which keeps it within
// the inliner's budget, so Readable and StoreFault each cost one call.
func locate(a Addr) (*bank, int, int) {
	ns := NamespaceOf(a)
	b := &banks[ns]
	off := int(a - b.base)
	if ns != NSPortAbs {
		return b, 0, off
	}
	return b, off / PortAbsStride, off % PortAbsStride
}

// mapped reports whether a register backs word off of the bank's block
// for port on a switch with ports ports (ports <= 0: any port).
func (b *bank) mapped(port, off, ports int) bool {
	return off < b.words && (ports <= 0 || port < ports)
}

func (b *bank) writable(off int) bool { return off >= b.wrLo && off < b.wrHi }

// pageShift splits an address into its 0x100-word page and the word
// within it; every bank boundary is a multiple of a page.
const pageShift = 8

// pages maps each page of the address space to its namespace, read off
// banks (listed in address order): a page belongs to the last bank
// whose base is at or below it.
var pages = func() (p [AddrSpaceWords >> pageShift]Namespace) {
	for pg := range p {
		for ns := NSSwitch; int(ns) < len(banks); ns++ {
			if Addr(pg<<pageShift) >= banks[ns].base {
				p[pg] = ns
			}
		}
	}
	return p
}()

// NamespaceOf classifies a word address.
//
//alloc:free
func NamespaceOf(a Addr) Namespace {
	if a >= AddrSpaceWords {
		return NSInvalid
	}
	return pages[a>>pageShift]
}

// SRAMIndex converts an SRAM address to its word offset within the SRAM
// bank, or -1 if a is not an SRAM address.
func SRAMIndex(a Addr) int {
	if NamespaceOf(a) != NSSRAM {
		return -1
	}
	return int(a - SRAMBase)
}

// PortAbs returns the absolute-window address of statistic stat on port
// p.  It panics if p or stat are out of range; callers validate against
// MaxPorts.
func PortAbs(p int, stat int) Addr {
	if p < 0 || p >= MaxPorts || stat < 0 || stat >= PortAbsStride {
		panic(fmt.Sprintf("mem: PortAbs(%d, %d) out of range", p, stat))
	}
	return PortAbsBase + Addr(p*PortAbsStride+stat)
}

// PortAbsDecode splits an absolute-window address into (port, stat).
func PortAbsDecode(a Addr) (port, stat int) {
	off := int(a - PortAbsBase)
	return off / PortAbsStride, off % PortAbsStride
}

// Writable reports whether the memory protection map permits a TPP
// store to address a: scratch SRAM and per-port task scratch words are
// read-write, every statistics word is read-only.
func Writable(a Addr) bool {
	b, _, off := locate(a)
	return b.writable(off)
}

// Readable reports whether a TPP load of address a is backed by a
// mapped register, i.e. whether it succeeds rather than faulting with
// an unmapped-address error.  It is the static mirror of the ASIC's
// per-packet memory view (internal/asic agreement is property-tested
// there); the verifier uses it to prove programs fault-free before
// injection.
//
// ports is the switch's port count, bounding the absolute per-port
// window; ports <= 0 means "unknown switch" and treats the whole
// window as mapped (the permissive end-host default, since an injector
// cannot know the port count of every switch on the path).
func Readable(a Addr, ports int) bool {
	b, port, off := locate(a)
	return b.mapped(port, off, ports)
}

// StoreFault decides a TPP store to address a on a switch with the
// given port count; it is the one decision the ASIC's view and the
// verifier share.  It is zero when the store lands, Unmapped when no
// register backs a, and ReadOnly when the protection map forbids it.
func StoreFault(a Addr, ports int) Fault {
	b, port, off := locate(a)
	switch {
	case !b.mapped(port, off, ports):
		return Unmapped
	case !b.writable(off):
		return ReadOnly
	}
	return 0
}
