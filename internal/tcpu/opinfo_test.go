package tcpu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// recView records the switch-memory accesses of one execution and
// answers every read with val; a conditional store commits when cond
// equals val.
type recView struct {
	val    uint32
	access core.Access
	log    []string
}

func (v *recView) Load(a mem.Addr) (uint32, error) {
	v.access = core.AccessLoad
	v.log = append(v.log, fmt.Sprintf("load %v", a))
	return v.val, nil
}

func (v *recView) Store(a mem.Addr, x uint32) error {
	v.access = core.AccessStore
	v.log = append(v.log, fmt.Sprintf("store %v %#x", a, x))
	return nil
}

func (v *recView) CondStore(a mem.Addr, cond, x uint32) (uint32, error) {
	v.access = core.AccessCond
	v.log = append(v.log, fmt.Sprintf("cstore %v %#x %#x", a, cond, x))
	return v.val, nil
}

// The operands every opcode runs with: B names word bWord, and the
// stack pointer sits at word spWord, so each packet word an opcode
// touches resolves to one base.
const (
	probeWords = 12
	bWord      = 2
	spWord     = 7
)

// runOp executes op once in stack mode over packet words fill(i),
// against a recView answering val.
func runOp(op core.Opcode, fill func(i int) uint32, val uint32) (Result, *core.TPP, *recView) {
	t := core.NewTPP(core.AddrStack, []core.Instruction{{Op: op, A: uint16(mem.SRAMBase), B: bWord}}, probeWords)
	t.Ptr = 4 * spWord
	for i := range probeWords {
		t.SetWord(i, fill(i))
	}
	v := &recView{val: val}
	return Config{}.Exec(t, v), t, v
}

// TestOpInfoMatchesExec holds every core.OpInfo row to what the TCPU
// does, since the verifier judges programs by the rows alone: the
// packet words read and written, the stack-pointer move, the kind of
// switch-memory access, the guard's halt rule and the stall.
func TestOpInfoMatchesExec(t *testing.T) {
	const val = 0x8000_0000 // every switch read returns it
	for op := core.Opcode(0); op.Valid(); op++ {
		info, _ := op.Info()
		base := bWord
		if info.SP != 0 {
			base = spWord
		}
		abs := func(offs []int) []int {
			var w []int
			for _, o := range offs {
				w = append(w, base+o)
			}
			slices.Sort(w)
			return w
		}

		// Writes: over distinct sentinels, a written word changes.
		sentinel := func(i int) uint32 { return 0x100 + uint32(i) }
		_, tpp, _ := runOp(op, sentinel, val)
		var writes []int
		for i := range probeWords {
			if tpp.Word(i) != sentinel(i) {
				writes = append(writes, i)
			}
		}
		if want := abs(info.Writes); !slices.Equal(writes, want) {
			t.Errorf("%s writes words %v, its row says %v", op, writes, want)
		}
		if got := (int(tpp.Ptr) - 4*spWord) / 4; got != info.SP {
			t.Errorf("%s moves SP by %d words, its row says %d", op, got, info.SP)
		}

		// Over memory that holds val everywhere, every guard passes
		// and every conditional store commits.
		same := func(int) uint32 { return val }
		r, base0, v := runOp(op, same, val)
		if r.Fault != nil || r.Halted {
			t.Fatalf("%s: fault %v, halted %v", op, r.Fault, r.Halted)
		}
		if v.access != info.Access || len(v.log) > 1 {
			t.Errorf("%s accesses switch memory as %v (%q), its row says %v", op, v.access, v.log, info.Access)
		}
		if r.cstoreStalls != info.Stall {
			t.Errorf("%s stalls %d cycles, its row says %d", op, r.cstoreStalls, info.Stall)
		}

		// Reads: a word is read when changing it alone changes the
		// switch accesses, the written words, the halt or SP.
		var reads []int
		for j := range probeWords {
			for _, p := range []uint32{0, 0xffff_ffff} {
				rj, tj, vj := runOp(op, func(i int) uint32 {
					if i == j {
						return p
					}
					return val
				}, val)
				differs := rj.Fault != nil || rj.Halted != r.Halted || tj.Ptr != base0.Ptr ||
					!slices.Equal(vj.log, v.log)
				for i := range probeWords {
					if (i != j || slices.Contains(writes, i)) && tj.Word(i) != base0.Word(i) {
						differs = true
					}
				}
				if differs {
					reads = append(reads, j)
					break
				}
			}
		}
		if want := abs(info.Reads); !slices.Equal(reads, want) {
			t.Errorf("%s reads words %v, its row says %v", op, reads, want)
		}

		// The guard: unless (sw[A] & pkt[Reads[0]]) == pkt[Reads[1]],
		// the program halts; nothing else halts.
		for _, sw := range []uint32{0, 0x0f, 0xff} {
			for _, mask := range []uint32{0, 0x0f, 0xf0} {
				for _, want := range []uint32{0, 0x0f, 0xf0} {
					r, _, _ := runOp(op, func(i int) uint32 {
						switch {
						case info.Halts && i == base+info.Reads[0]:
							return mask
						case info.Halts && i == base+info.Reads[1]:
							return want
						}
						return sentinel(i)
					}, sw)
					if halts := info.Halts && sw&mask != want; r.Halted != halts {
						t.Errorf("%s over sw %#x, mask %#x, value %#x: halted %v, its row says %v",
							op, sw, mask, want, r.Halted, halts)
					}
				}
			}
		}
	}
}
