package core

import "encoding/binary"

// IP Record Route option (§4 compares TPPs against it: "IP Record
// Route, an IP option that enables routers to insert the interface IP
// address on the packet").  The option is type 7, one length byte and a
// pointer byte, then 4-byte address slots.  Our switches record their
// switch id in the slots (they have no interface IPs).
const (
	optRecordRoute  = 7
	optEndOfOptions = 0
	rrHeaderLen     = 3
)

// MaxRecordRouteSlots is how many 4-byte records fit in the 40-byte IP
// option space: the architectural limit the paper's generality argument
// leans on (a TPP sizes its packet memory freely; Record Route cannot).
const MaxRecordRouteSlots = (MaxIPv4Options - rrHeaderLen - 1) / 4 // 9

// NewRecordRouteOption builds an empty Record Route option with the
// given number of address slots (clamped to MaxRecordRouteSlots),
// padded to 4-byte alignment with End-of-Options.
//
//api:paper the §4 Record Route comparator, TestRecordRouteStampsSwitchIDs
func NewRecordRouteOption(slots int) []byte {
	if slots < 1 {
		slots = 1
	}
	if slots > MaxRecordRouteSlots {
		slots = MaxRecordRouteSlots
	}
	optLen := rrHeaderLen + 4*slots
	padded := (optLen + 1 + 3) &^ 3 // +1 End-of-Options, then align
	b := make([]byte, padded)
	b[0] = optRecordRoute
	b[1] = byte(optLen)
	b[2] = 4 // pointer: 1-based offset of the first free slot
	b[optLen] = optEndOfOptions
	return b
}

// RecordRouteAppend writes addr into the next free slot of the Record
// Route option inside opts, advancing the pointer.  It returns false
// when opts holds no Record Route option or the slots are full — the
// silent-truncation failure mode TPPs avoid by faulting visibly.
func RecordRouteAppend(opts []byte, addr uint32) bool {
	if len(opts) < rrHeaderLen || opts[0] != optRecordRoute {
		return false
	}
	optLen := int(opts[1])
	ptr := int(opts[2])
	if optLen > len(opts) || ptr+3 > optLen {
		return false
	}
	binary.BigEndian.PutUint32(opts[ptr-1:], addr)
	opts[2] = byte(ptr + 4)
	return true
}

// RecordRouteAddrs extracts the recorded addresses.
//
//api:paper the §4 Record Route comparator, TestRecordRouteStampsSwitchIDs
func RecordRouteAddrs(opts []byte) []uint32 {
	if len(opts) < rrHeaderLen || opts[0] != optRecordRoute {
		return nil
	}
	optLen := int(opts[1])
	ptr := int(opts[2])
	if optLen > len(opts) || ptr < 4 {
		return nil
	}
	n := (ptr - 4) / 4
	out := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, binary.BigEndian.Uint32(opts[rrHeaderLen+4*i:]))
	}
	return out
}
