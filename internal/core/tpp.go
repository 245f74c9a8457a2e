package core

import (
	"encoding/binary"
	"fmt"
)

// AddrMode selects how instructions address packet memory (§3.2.2).
type AddrMode uint8

const (
	// AddrStack manages packet memory with a stack pointer: PUSH
	// appends words and advances SP, so the memory records one
	// snapshot per hop back to back (Figure 1).
	AddrStack AddrMode = 1
	// AddrHop uses base:offset addressing: the effective word address
	// of operand B is Ptr*HopLen/4 + B, where Ptr is the hop number
	// maintained in the TPP header and HopLen is the per-hop data
	// structure size in bytes.
	AddrHop AddrMode = 2
)

// String names the addressing mode.
func (m AddrMode) String() string {
	switch m {
	case AddrStack:
		return "stack"
	case AddrHop:
		return "hop"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// TPP header flags.
const (
	// FlagError is set by a TCPU when execution faulted (packet memory
	// exhausted, bad address, or a store to protected state).  The
	// packet still forwards; end-hosts inspect the flag.
	FlagError uint8 = 1 << 0
	// FlagThrottled is set by a switch whose TCPU admission gate ran
	// out of tokens: the packet was forwarded without executing its
	// program, degrading to plain forwarding as the line-rate argument
	// requires.  End-hosts use the bit to distinguish an overloaded
	// TCPU (echo returns, flag set, hop record missing) from a
	// blackhole (no echo at all).
	FlagThrottled uint8 = 1 << 2
	// FlagAccessFault is set by a switch whose tenant guard denied at
	// least one of the program's memory accesses: a denied LOAD returned
	// the poison value, a denied STORE was dropped, and execution
	// continued — fail-forward, the gate protects state but never stalls
	// the dataplane.  End-hosts see the bit on the echo and know their
	// program touched memory outside its grant.
	FlagAccessFault uint8 = 1 << 3
)

// TPPVersion is the wire format version implemented by this package.
const TPPVersion = 1

// TPPHeaderLen is the fixed TPP header size in bytes.  The paper's
// Figure 4 allots "up to 20 bytes" for the five header fields; this
// encoding packs them in 12, keeping 4-byte alignment.
const TPPHeaderLen = 12

// MaxTPPInstructions bounds the program length.  §1 suggests
// "restricting TPPs to (say) five instructions per-packet"; we keep the
// wire format general (one byte of instruction count) and let the ASIC
// enforce its own per-device limit.
const MaxTPPInstructions = 255

// TPP is a decoded tiny packet program: a short instruction sequence
// plus the packet memory it owns.
type TPP struct {
	Version uint8
	Flags   uint8
	Mode    AddrMode
	// Ptr is the paper's header field 4, "Hop number / stack pointer":
	// the stack pointer in bytes in stack mode, the hop counter in hop
	// mode.  Each TCPU advances it as it executes the program.
	Ptr uint16
	// HopLen is the per-hop data structure length in bytes, used only
	// in hop addressing mode (header field 5).
	HopLen uint16
	// Ins is the instruction section, executed sequentially at every
	// TCPU-enabled switch the packet traverses.
	Ins []Instruction
	// Mem is the packet memory scratch space, preallocated by the
	// end-host; its length never changes inside the network.  Length
	// is always a multiple of 4.
	Mem []byte
	// Tenant is the isolation principal the program runs as.  It is
	// stamped and sealed by the trusted edge (the endhost NIC overwrites
	// whatever a guest supplied), so guarded switches can attribute every
	// memory access and admission token to a tenant.  Zero is the
	// operator tenant, which keeps untenanted legacy traffic meaningful.
	Tenant uint8

	// Compiled caches the program's static validation verdict (a
	// *tcpu.Program), attached by the trusted edge so every TCPU on the
	// path can skip its own cache lookup when its device configuration
	// matches.  It never goes on the wire (AppendTo skips it, ParseTPP
	// leaves it nil) and is shared by Clone: a Program is immutable and
	// safe to execute with concurrently.
	Compiled any
}

// tppBlock co-allocates a TPP with its packet memory; per-packet
// instrumentation (e.g. the §2.1 telemetry probe on every data packet)
// builds a fresh TPP per send, and one allocation instead of two is
// measurable at line rate.  128 bytes covers most experiments' memory
// sections (ndb's 5-hop trace uses 80), not all: RCP*'s collect program
// (endhost.CollectProgram, 5 statistics × rcp.MaxHops 7 words) takes
// 140 and gets the separately allocated fallback.  RCP* builds it once
// per process, so the array stays at 128 rather than add bytes to every
// NewTPP.
type tppBlock struct {
	t   TPP
	mem [128]byte
}

// NewTPP builds a TPP with memWords words of zeroed packet memory.
func NewTPP(mode AddrMode, ins []Instruction, memWords int) *TPP {
	n := memWords * 4
	if n <= len(tppBlock{}.mem) {
		b := &tppBlock{t: TPP{Version: TPPVersion, Mode: mode, Ins: ins}}
		b.t.Mem = b.mem[:n:n]
		return &b.t
	}
	return &TPP{
		Version: TPPVersion,
		Mode:    mode,
		Ins:     ins,
		Mem:     make([]byte, n),
	}
}

// MemWords returns the packet memory size in 32-bit words.
func (t *TPP) MemWords() int { return len(t.Mem) / 4 }

// WireLen returns the serialized size of the TPP section in bytes.
func (t *TPP) WireLen() int {
	return TPPHeaderLen + InstructionLen*len(t.Ins) + len(t.Mem)
}

// Word returns packet memory word i (big endian).  It panics if i is out
// of range; callers bound-check through InRange.
func (t *TPP) Word(i int) uint32 {
	return binary.BigEndian.Uint32(t.Mem[i*4:])
}

// SetWord writes packet memory word i.
func (t *TPP) SetWord(i int, v uint32) {
	binary.BigEndian.PutUint32(t.Mem[i*4:], v)
}

// InRange reports whether word index i is inside packet memory.
func (t *TPP) InRange(i int) bool { return i >= 0 && (i+1)*4 <= len(t.Mem) }

// EffectiveWord translates an instruction's B operand into a word index
// according to the addressing mode ("base:offset refers to the word at
// location base * size + offset").
func (t *TPP) EffectiveWord(b uint16) int {
	if t.Mode == AddrHop {
		return int(t.Ptr)*int(t.HopLen/4) + int(b)
	}
	return int(b)
}

// Hop returns the hop counter (hop mode) or the number of complete
// stack frames of size frameWords pushed so far (stack mode), never more
// than the frameWords-word records packet memory holds.  A TCPU never
// advances the stack pointer past memory, but a header read off the wire
// may claim anything; readers that index per-hop records by this count
// stay inside Mem.
func (t *TPP) Hop(frameWords int) int {
	n := int(t.Ptr)
	if t.Mode != AddrHop {
		if frameWords <= 0 {
			return 0
		}
		n /= 4 * frameWords
	}
	if frameWords > 0 {
		n = min(n, t.MemWords()/frameWords)
	}
	return n
}

// Clone deep-copies the TPP so switches can execute on a private copy
// when a packet is replicated (flooding).
func (t *TPP) Clone() *TPP {
	c := *t
	c.Ins = append([]Instruction(nil), t.Ins...)
	c.Mem = append([]byte(nil), t.Mem...)
	return &c
}

// CopyFrom makes t a deep copy of src in t's own instruction and
// packet-memory buffers, so a copy that is remade often (a pool block's
// program, a retriable probe's) allocates only when src outgrows them.
func (t *TPP) CopyFrom(src *TPP) {
	ins, mem := t.Ins, t.Mem
	*t = *src
	t.Ins = append(ins[:0], src.Ins...)
	t.Mem = append(mem[:0], src.Mem...)
}

// Validate checks structural invariants of the TPP.  It is split into
// three ordered stages so a tcpu.Program can decide the static stages
// once and the TCPU re-run only the dynamic one per packet, faulting in
// exactly the order a fresh Validate does.
func (t *TPP) Validate() error {
	if err := t.ValidateHead(); err != nil {
		return err
	}
	if err := t.ValidateDynamic(); err != nil {
		return err
	}
	return t.ValidateIns()
}

// ValidateHead checks the invariants that are fixed for a given
// instruction section and addressing mode: version, mode, and the
// wire-format instruction-count bound.
func (t *TPP) ValidateHead() error {
	if t.Version != TPPVersion {
		return fmt.Errorf("core: unsupported TPP version %d", t.Version)
	}
	if t.Mode != AddrStack && t.Mode != AddrHop {
		return fmt.Errorf("core: invalid addressing mode %d", t.Mode)
	}
	if len(t.Ins) > MaxTPPInstructions {
		return fmt.Errorf("core: %d instructions exceed maximum %d", len(t.Ins), MaxTPPInstructions)
	}
	return nil
}

// ValidateDynamic checks the invariants that depend on header state a
// hop can change (or that differ between two packets carrying the same
// program): memory length, per-hop record size, and stack-pointer
// alignment.
func (t *TPP) ValidateDynamic() error {
	if len(t.Mem)%4 != 0 {
		return fmt.Errorf("core: packet memory length %d not 4-byte aligned", len(t.Mem))
	}
	if t.Mode == AddrHop && t.HopLen%4 != 0 {
		return fmt.Errorf("core: per-hop length %d not 4-byte aligned", t.HopLen)
	}
	if t.Mode == AddrStack && t.Ptr%4 != 0 {
		return fmt.Errorf("core: stack pointer %d not 4-byte aligned", t.Ptr)
	}
	return nil
}

// ValidateIns checks every instruction encoding.
func (t *TPP) ValidateIns() error {
	for k, in := range t.Ins {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("core: instruction %d: %w", k, err)
		}
	}
	return nil
}

// AppendTo serializes the TPP section (header, instructions, packet
// memory) onto b.
func (t *TPP) AppendTo(b []byte) []byte {
	b = append(b, t.Version, t.Flags, byte(t.Mode), byte(len(t.Ins)))
	b = binary.BigEndian.AppendUint16(b, uint16(t.MemWords()))
	b = binary.BigEndian.AppendUint16(b, t.Ptr)
	b = binary.BigEndian.AppendUint16(b, t.HopLen)
	b = append(b, t.Tenant, 0) // tenant id + reserved, keeps 4-byte alignment
	for _, in := range t.Ins {
		b = binary.BigEndian.AppendUint32(b, in.Word())
	}
	return append(b, t.Mem...)
}

// ParseTPP decodes a TPP section from the front of b, returning the
// number of bytes consumed.  The packet memory is copied so that the
// decoded TPP owns its scratch space.
func ParseTPP(b []byte, t *TPP) (int, error) {
	if len(b) < TPPHeaderLen {
		return 0, fmt.Errorf("core: TPP header truncated: %d bytes", len(b))
	}
	t.Version = b[0]
	t.Flags = b[1]
	t.Mode = AddrMode(b[2])
	nIns := int(b[3])
	memWords := int(binary.BigEndian.Uint16(b[4:6]))
	t.Ptr = binary.BigEndian.Uint16(b[6:8])
	t.HopLen = binary.BigEndian.Uint16(b[8:10])
	t.Tenant = b[10]
	t.Compiled = nil // a reused TPP must not keep a stale compilation
	n := TPPHeaderLen
	need := n + nIns*InstructionLen + memWords*4
	if len(b) < need {
		return 0, fmt.Errorf("core: TPP body truncated: need %d bytes, have %d", need, len(b))
	}
	// Sized once: a fresh TPP pays one allocation for its instructions,
	// a reused one none.
	if cap(t.Ins) < nIns {
		t.Ins = make([]Instruction, nIns)
	}
	t.Ins = t.Ins[:nIns]
	for i := range t.Ins {
		t.Ins[i] = DecodeInstruction(binary.BigEndian.Uint32(b[n:]))
		n += InstructionLen
	}
	t.Mem = append(t.Mem[:0], b[n:n+memWords*4]...)
	n += memWords * 4
	if err := t.Validate(); err != nil {
		return 0, err
	}
	return n, nil
}
