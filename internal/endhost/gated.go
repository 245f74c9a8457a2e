package endhost

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// Unexecuted is the sentinel result slots are pre-filled with before a
// gated probe departs.  A TPP can come back echoed without having
// executed at the gated switch — throttled by an admission gate,
// stripped en route, or halted by its CEXEC at every hop — and its
// result words then still hold whatever the sender wrote.  Zero would
// be ambiguous (a counter can legitimately be zero), so the sentinel
// makes "the program never ran there" distinguishable from every
// plausible executed outcome.  (A word that actually reaches
// 0xFFFFFFFF aliases the sentinel; 32-bit tallies are re-based long
// before that.)
const Unexecuted = ^uint32(0)

// Gated builds a program confined to the switch with the given id by
// the paper's CEXEC [Switch:SwitchID] gate (Table 1): the gate, then
// body, over words of packet memory.  Word 0 holds the CEXEC mask (the
// full ID word), word 1 the switch id, and every later word starts as
// Unexecuted, so a result slot the program never wrote reads as the
// sentinel.  The caller stamps its operands over the sentinel.
func Gated(switchID uint32, words int, body ...core.Instruction) *core.TPP {
	ins := make([]core.Instruction, 0, 1+len(body))
	ins = append(ins, core.Instruction{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0})
	t := core.NewTPP(core.AddrStack, append(ins, body...), words)
	t.SetWord(0, ^uint32(0))
	t.SetWord(1, switchID)
	for w := 2; w < words; w++ {
		t.SetWord(w, Unexecuted)
	}
	return t
}

// RetryBackoff returns the pause before a gated program's next attempt
// after n >= 0 inconclusive ones in a row: 2 ms, doubling per attempt,
// up to 64 ms.  An inconclusive echo usually means an admission gate
// throttled the program — the tenant is over its token-bucket share —
// and a retry at echo pace (one RTT, often well under a refill
// interval) would burn the next token and storm the gate; backing off
// gives the bucket time to refill.
func RetryBackoff(n int) netsim.Time {
	return 2 * netsim.Millisecond << min(n, 5) // 2 ms << 5 = 64 ms
}

// gatedOverhead is the instruction cost of the gate: the CEXEC switch
// match plus the atomic [Switch:Epoch] read.
const gatedOverhead = 2

// GatedChunkWords returns how many region words one gated chunk probe
// can read under the device instruction limit.
func GatedChunkWords(insLimit int) int { return insLimit - gatedOverhead }

// GatedChunkProgram builds one sweep probe: gated by CEXEC to execute
// only at the switch with the given id, it reads the switch's boot
// epoch and up to insLimit-2 region words in a single TCPU execution —
// atomically, so a crash-restart can never interleave between the
// epoch and the values it vouches for.  Packet memory layout:
//
//	word 0: 0xFFFFFFFF           (CEXEC mask)
//	word 1: switchID             (CEXEC value)
//	word 2: [Switch:Epoch]       (result; Unexecuted until it runs)
//	word 3+i: addrs[i]           (results; Unexecuted until it runs)
func GatedChunkProgram(switchID uint32, addrs []mem.Addr, insLimit int) (*core.TPP, error) {
	if len(addrs) == 0 || len(addrs) > GatedChunkWords(insLimit) {
		return nil, fmt.Errorf("endhost: %d addresses do not fit a %d-instruction gated chunk", len(addrs), insLimit)
	}
	loads := make([]core.Instruction, 0, 1+len(addrs))
	loads = append(loads, core.Instruction{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchEpoch), B: 2})
	for i, a := range addrs {
		loads = append(loads, core.Instruction{Op: core.OpLOAD, A: uint16(a), B: uint16(3 + i)})
	}
	return Gated(switchID, 3+len(addrs), loads...), nil
}

// DecodeGatedChunk extracts a gated chunk probe's results from its
// echo.  ok is false when the program never executed at the gated
// switch (the epoch slot still holds the sentinel) or any value slot
// does — the caller should drop the whole chunk and let the next sweep
// re-read it, rather than fold garbage.
func DecodeGatedChunk(e *core.TPP, n int) (epoch uint32, vals []uint32, ok bool) {
	if e == nil || e.MemWords() < 3+n {
		return 0, nil, false
	}
	epoch = e.Word(2)
	if epoch == Unexecuted {
		return 0, nil, false
	}
	vals = make([]uint32, n)
	for i := range vals {
		vals[i] = e.Word(3 + i)
		if vals[i] == Unexecuted {
			return 0, nil, false
		}
	}
	return epoch, vals, true
}
