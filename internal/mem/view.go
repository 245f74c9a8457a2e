package mem

import "fmt"

// View is the per-packet window onto a switch's unified memory map that
// the TCPU executes against.  A View is constructed by the ASIC for
// each TPP it processes: context-relative namespaces (Port, Queue,
// PacketMetadata) resolve using that packet's pipeline metadata.
type View interface {
	// Load reads the 32-bit word at address a.
	Load(a Addr) (uint32, error)
	// Store writes the word at address a, subject to the protection
	// map (Writable).
	Store(a Addr, v uint32) error
	// CondStore is CSTORE's compare-and-store: it writes v at a only if
	// the word there equals cond, and returns the word it found.  The
	// compare and the store are one atomic step, the "stronger
	// (linearizable) notion of consistency for memory updates" of §2.2.
	CondStore(a Addr, cond, v uint32) (old uint32, err error)
}

// A Fault is why a TPP memory access fails.
type Fault uint8

// The access faults.
const (
	Unmapped Fault = iota + 1 // no register backs the address
	ReadOnly                  // the protection map forbids the store
)

// String names the fault as AccessError prints it.
func (f Fault) String() string {
	if f == ReadOnly {
		return "read-only"
	}
	return "unmapped"
}

// AccessError describes a faulting TPP memory access; the TCPU converts
// it into the FlagError bit on the packet.
type AccessError struct {
	Addr  Addr
	Write bool
	Cause Fault
}

// Error implements the error interface.
func (e *AccessError) Error() string {
	op := "load"
	if e.Write {
		op = "store"
	}
	return fmt.Sprintf("mem: %s %s (%s): %s", op, NameOf(e.Addr), NamespaceOf(e.Addr), e.Cause)
}

// ErrUnmapped builds the error for an access to an address no bank
// backs.
func ErrUnmapped(a Addr, write bool) error {
	return &AccessError{Addr: a, Write: write, Cause: Unmapped}
}
