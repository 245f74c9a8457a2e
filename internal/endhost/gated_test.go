package endhost

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

func TestGatedChunkProgramShape(t *testing.T) {
	addrs := []mem.Addr{mem.SRAMBase, mem.SRAMBase + 1, mem.SRAMBase + 2}
	tpp, err := GatedChunkProgram(9, addrs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tpp.Ins); got != 5 {
		t.Fatalf("instruction count = %d", got)
	}
	if tpp.Ins[0].Op != core.OpCEXEC {
		t.Fatalf("first op = %v", tpp.Ins[0].Op)
	}
	if tpp.MemWords() != 6 {
		t.Fatalf("MemWords = %d", tpp.MemWords())
	}
	if tpp.Word(1) != 9 {
		t.Fatalf("gate switch id word = %d", tpp.Word(1))
	}
	for w := 2; w < 6; w++ {
		if tpp.Word(w) != Unexecuted {
			t.Fatalf("result word %d not sentinel: %#x", w, tpp.Word(w))
		}
	}
	// Over-full and empty chunks are rejected.
	if _, err := GatedChunkProgram(9, make([]mem.Addr, 4), 5); err == nil {
		t.Fatal("4 addrs fit a 5-instruction chunk?")
	}
	if _, err := GatedChunkProgram(9, nil, 5); err == nil {
		t.Fatal("empty chunk accepted")
	}
	if GatedChunkWords(5) != 3 {
		t.Fatalf("GatedChunkWords(5) = %d", GatedChunkWords(5))
	}
}

func TestDecodeGatedChunkAllOrNothing(t *testing.T) {
	tpp, err := GatedChunkProgram(3, []mem.Addr{mem.SRAMBase, mem.SRAMBase + 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Never executed: every slot still sentinel.
	if _, _, ok := DecodeGatedChunk(tpp, 2); ok {
		t.Fatal("decoded a chunk that never executed")
	}
	// Executed: epoch and both values filled.
	tpp.SetWord(2, 4)
	tpp.SetWord(3, 100)
	tpp.SetWord(4, 200)
	epoch, vals, ok := DecodeGatedChunk(tpp, 2)
	if !ok || epoch != 4 || vals[0] != 100 || vals[1] != 200 {
		t.Fatalf("decode: ok=%v epoch=%d vals=%v", ok, epoch, vals)
	}
	// A partially-filled echo (value slot still sentinel) is dropped
	// whole rather than folded half-garbage.
	tpp.SetWord(4, Unexecuted)
	if _, _, ok := DecodeGatedChunk(tpp, 2); ok {
		t.Fatal("decoded a chunk with a sentinel value slot")
	}
	// Nil and short echoes are rejected.
	if _, _, ok := DecodeGatedChunk(nil, 2); ok {
		t.Fatal("decoded nil echo")
	}
	if _, _, ok := DecodeGatedChunk(tpp, 10); ok {
		t.Fatal("decoded echo shorter than requested")
	}
}

func TestRetryBackoff(t *testing.T) {
	for n, want := range []netsim.Time{2, 4, 8, 16, 32, 64, 64, 64, 64} {
		if got := RetryBackoff(n); got != want*netsim.Millisecond {
			t.Errorf("RetryBackoff(%d) = %v, want %d ms", n, got, want)
		}
	}
}

func TestGatedLayout(t *testing.T) {
	body := core.Instruction{Op: core.OpSTORE, A: uint16(mem.SRAMBase), B: 2}
	tpp := Gated(11, 4, body)
	if len(tpp.Ins) != 2 || tpp.Ins[0].Op != core.OpCEXEC || tpp.Ins[1] != body {
		t.Fatalf("instructions = %+v", tpp.Ins)
	}
	if tpp.Ins[0].A != uint16(mem.SwitchBase+mem.SwitchID) || tpp.Ins[0].B != 0 {
		t.Fatalf("gate = %+v, want CEXEC [Switch:SwitchID], [Packet:0]", tpp.Ins[0])
	}
	if tpp.Mode != core.AddrStack || tpp.Ptr != 0 || tpp.MemWords() != 4 {
		t.Fatalf("mode %v, ptr %d, %d words", tpp.Mode, tpp.Ptr, tpp.MemWords())
	}
	for w, want := range []uint32{0xFFFFFFFF, 11, Unexecuted, Unexecuted} {
		if got := tpp.Word(w); got != want {
			t.Errorf("word %d = %#x, want %#x", w, got, want)
		}
	}
}
