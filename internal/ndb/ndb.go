// Package ndb implements the §2.3 network task: a forwarding-plane
// debugger for a software-defined network.  A trusted entity inserts a
// TPP on packets that records, at every hop, the switch id, the matched
// flow-table entry and its version, and the input port.  The collector
// reassembles these traces into packet journeys and verifies them
// against the controller's intended forwarding policy, catching wrong
// paths, stale hardware rules, loops and black holes "without requiring
// the network to create additional packet copies".
//
// The packet-copy baseline of the original ndb [8] is also implemented
// (CopyCollector) so the in-band overhead comparison can be measured.
package ndb

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/mem"
)

// traceWords is the per-hop record size of the trace program.
const traceWords = 4

// TraceProgram returns the §2.3 program (extended with the entry
// version, which Table 2 lists as the "flow table version number"
// statistic ndb needs):
//
//	PUSH [Switch:ID]
//	PUSH [PacketMetadata:MatchedEntryID]
//	PUSH [PacketMetadata:InputPort]
//	PUSH [PacketMetadata:MatchedEntryVersion]
func TraceProgram(maxHops int) *core.TPP {
	return core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketMatchedID)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketInputPort)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketMatchedVer)},
	}, traceWords*maxHops)
}

// Instrument attaches a fresh trace TPP to a packet ("a trusted entity
// insert[s] the TPP shown below on all its packets").
func Instrument(pkt *core.Packet, maxHops int) {
	pkt.TPP = TraceProgram(maxHops)
	pkt.Eth.Type = core.EtherTypeTPP
}

// HopRecord is one hop of a packet's journey.
type HopRecord struct {
	SwitchID     uint32
	EntryID      uint32
	InPort       uint32
	EntryVersion uint32
}

// ParseTrace extracts the journey from a received trace TPP.
func ParseTrace(t *core.TPP) []HopRecord {
	hops := t.Hop(traceWords)
	out := make([]HopRecord, 0, hops)
	for i := 0; i < hops; i++ {
		b := i * traceWords
		out = append(out, HopRecord{
			SwitchID:     t.Word(b),
			EntryID:      t.Word(b + 1),
			InPort:       t.Word(b + 2),
			EntryVersion: t.Word(b + 3),
		})
	}
	return out
}

// Expectation is the controller's intent for one hop.
type Expectation struct {
	SwitchID     uint32
	EntryID      uint32
	EntryVersion uint32
}

// ViolationKind classifies a forwarding-policy violation.
type ViolationKind string

// The violation classes the verifier reports.
const (
	WrongSwitch  ViolationKind = "wrong-switch"   // path diverged
	WrongEntry   ViolationKind = "wrong-entry"    // unexpected rule matched
	StaleEntry   ViolationKind = "stale-entry"    // rule version != intent
	PathTooShort ViolationKind = "path-too-short" // black hole / early exit
	PathTooLong  ViolationKind = "path-too-long"  // extra hops
	LoopDetected ViolationKind = "loop"           // a switch repeats
)

// Violation is one verification finding.
type Violation struct {
	Kind ViolationKind
	Hop  int
	Got  HopRecord
	Want Expectation
}

// String formats the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s at hop %d: got switch=%d entry=%d v%d, want switch=%d entry=%d v%d",
		v.Kind, v.Hop, v.Got.SwitchID, v.Got.EntryID, v.Got.EntryVersion,
		v.Want.SwitchID, v.Want.EntryID, v.Want.EntryVersion)
}

// Verify compares a recorded journey against the intended path and
// returns every violation found (empty means the dataplane conforms).
func Verify(trace []HopRecord, want []Expectation) []Violation {
	var out []Violation

	seen := make(map[uint32]int)
	for i, h := range trace {
		if at, dup := seen[h.SwitchID]; dup {
			out = append(out, Violation{Kind: LoopDetected, Hop: i, Got: h,
				Want: Expectation{SwitchID: trace[at].SwitchID}})
		}
		seen[h.SwitchID] = i
	}

	n := min(len(trace), len(want))
	for i := 0; i < n; i++ {
		got, exp := trace[i], want[i]
		switch {
		case got.SwitchID != exp.SwitchID:
			out = append(out, Violation{Kind: WrongSwitch, Hop: i, Got: got, Want: exp})
		case got.EntryID != exp.EntryID:
			out = append(out, Violation{Kind: WrongEntry, Hop: i, Got: got, Want: exp})
		case got.EntryVersion != exp.EntryVersion:
			out = append(out, Violation{Kind: StaleEntry, Hop: i, Got: got, Want: exp})
		}
	}
	if len(trace) < len(want) {
		out = append(out, Violation{Kind: PathTooShort, Hop: len(trace),
			Want: want[len(trace)]})
	}
	if len(trace) > len(want) {
		out = append(out, Violation{Kind: PathTooLong, Hop: len(want),
			Got: trace[len(want)]})
	}
	return out
}

// CopyCollector is the baseline ndb mechanism: every switch generates a
// truncated copy of each forwarded packet, "tagged with the version
// number ... and additional metadata", reassembled by servers.  The
// collector counts the copy overhead the TPP approach avoids.
type CopyCollector struct {
	// CopyBytesEach is the truncated copy size (64-byte header slice,
	// the original ndb's choice).
	CopyBytesEach int

	Copies    uint64
	CopyBytes uint64
	journeys  map[uint64][]HopRecord
}

// NewCopyCollector builds the baseline collector.
func NewCopyCollector() *CopyCollector {
	return &CopyCollector{CopyBytesEach: 64, journeys: make(map[uint64][]HopRecord)}
}

// AttachTo taps every forwarded packet at sw.  Delivery of copies to
// the collector servers is modeled as lossless and instantaneous; the
// overhead accounting (one truncated copy per packet per hop) is what
// the comparison needs.
func (c *CopyCollector) AttachTo(sw *asic.Switch) {
	sw.SetMirror(func(pkt *core.Packet, in, out int) {
		c.Copies++
		c.CopyBytes += uint64(c.CopyBytesEach)
		c.journeys[pkt.Meta.UID] = append(c.journeys[pkt.Meta.UID], HopRecord{
			SwitchID:     sw.ID(),
			EntryID:      pkt.Meta.MatchedEntry,
			InPort:       uint32(in),
			EntryVersion: pkt.Meta.MatchedVer,
		})
	})
}

// Journey returns the reassembled trace for a packet UID.
func (c *CopyCollector) Journey(uid uint64) []HopRecord { return c.journeys[uid] }
