package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTPPWireLenFormula(t *testing.T) {
	// §3.3: "If we limit to 5 instructions per packet, the instruction
	// space overhead is 20 bytes/packet."
	tpp := NewTPP(AddrStack, randomInstructions(rand.New(rand.NewSource(1)), 5), 10)
	insBytes := tpp.WireLen() - TPPHeaderLen - len(tpp.Mem)
	if insBytes != 20 {
		t.Fatalf("5-instruction overhead = %d bytes, want 20", insBytes)
	}
	if got, want := tpp.WireLen(), TPPHeaderLen+20+40; got != want {
		t.Fatalf("WireLen = %d, want %d", got, want)
	}
}

func TestTPPSerializeParseRoundTrip(t *testing.T) {
	tpp := NewTPP(AddrHop, []Instruction{
		{Op: OpLOAD, A: 0x001, B: 0},
		{Op: OpLOAD, A: 0x302, B: 1},
	}, 12)
	tpp.HopLen = 8
	tpp.Ptr = 2
	tpp.Flags = FlagError
	tpp.Tenant = 9
	tpp.SetWord(3, 0xDEADBEEF)

	wire := tpp.AppendTo(nil)
	if len(wire) != tpp.WireLen() {
		t.Fatalf("serialized length %d != WireLen %d", len(wire), tpp.WireLen())
	}
	var out TPP
	n, err := ParseTPP(wire, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d bytes", n, len(wire))
	}
	if out.Mode != AddrHop || out.Ptr != 2 || out.HopLen != 8 || out.Flags != FlagError {
		t.Fatalf("header mismatch: %+v", out)
	}
	if out.Tenant != 9 {
		t.Fatalf("tenant id lost on the wire: %d", out.Tenant)
	}
	if len(out.Ins) != 2 || out.Ins[1] != tpp.Ins[1] {
		t.Fatalf("instructions mismatch: %+v", out.Ins)
	}
	if out.Word(3) != 0xDEADBEEF {
		t.Fatalf("packet memory mismatch: %#x", out.Word(3))
	}
}

// Property: AppendTo followed by ParseTPP reproduces the TPP exactly, and
// the serialized length always matches WireLen (the Figure 4 / §3.3
// length formula).  Every case parses into the same TPP, poisoned after
// each use, the way the prober reuses its echo: nothing of a previous,
// larger program may survive.
func TestTPPRoundTripQuick(t *testing.T) {
	var out TPP
	f := func(seed int64, nIns, memWords uint8, mode bool, ptr uint16, tenant uint8) bool {
		defer out.Poison()
		r := rand.New(rand.NewSource(seed))
		m := AddrStack
		if mode {
			m = AddrHop
		}
		tpp := NewTPP(m, randomInstructions(r, int(nIns%16)), int(memWords%32))
		tpp.Tenant = tenant
		if m == AddrHop {
			tpp.HopLen = uint16(r.Intn(8)) * 4
			tpp.Ptr = ptr % 64
		} else {
			tpp.Ptr = (ptr % uint16(len(tpp.Mem)+4)) &^ 3
		}
		r.Read(tpp.Mem)
		wire := tpp.AppendTo(nil)
		if len(wire) != tpp.WireLen() {
			return false
		}
		n, err := ParseTPP(wire, &out)
		if err != nil || n != len(wire) {
			return false
		}
		if out.Mode != tpp.Mode || out.Ptr != tpp.Ptr || out.HopLen != tpp.HopLen {
			return false
		}
		if out.Tenant != tpp.Tenant {
			return false
		}
		if len(out.Ins) != len(tpp.Ins) {
			return false
		}
		for i := range out.Ins {
			if out.Ins[i] != tpp.Ins[i] {
				return false
			}
		}
		return string(out.Mem) == string(tpp.Mem)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseTPPTruncated(t *testing.T) {
	tpp := NewTPP(AddrStack, randomInstructions(rand.New(rand.NewSource(2)), 3), 8)
	wire := tpp.AppendTo(nil)
	for cut := 0; cut < len(wire); cut++ {
		var out TPP
		if _, err := ParseTPP(wire[:cut], &out); err == nil {
			t.Fatalf("truncation to %d bytes not detected", cut)
		}
	}
}

func TestTPPValidate(t *testing.T) {
	good := NewTPP(AddrStack, nil, 4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid TPP rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*TPP)
	}{
		{"bad version", func(p *TPP) { p.Version = 9 }},
		{"bad mode", func(p *TPP) { p.Mode = 7 }},
		{"unaligned SP", func(p *TPP) { p.Ptr = 3 }},
		{"bad instruction", func(p *TPP) { p.Ins = []Instruction{{Op: 99}} }},
	}
	for _, tc := range cases {
		p := NewTPP(AddrStack, nil, 4)
		tc.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	hop := NewTPP(AddrHop, nil, 4)
	hop.HopLen = 6
	if err := hop.Validate(); err == nil {
		t.Error("unaligned HopLen: expected validation error")
	}
}

func TestTPPEffectiveWord(t *testing.T) {
	stack := NewTPP(AddrStack, nil, 16)
	if got := stack.EffectiveWord(5); got != 5 {
		t.Errorf("stack mode effective word = %d, want 5", got)
	}
	hop := NewTPP(AddrHop, nil, 16)
	hop.HopLen = 16 // 4 words per hop
	hop.Ptr = 2
	// "LOAD [Switch:SwitchID], [Packet:hop[1]] will copy the switch ID
	// into PacketMemory[base*size+offset]".
	if got := hop.EffectiveWord(1); got != 9 {
		t.Errorf("hop mode effective word = %d, want 9", got)
	}
}

func TestTPPHopCounting(t *testing.T) {
	hop := NewTPP(AddrHop, nil, 16)
	hop.Ptr = 3
	if got := hop.Hop(4); got != 3 {
		t.Errorf("hop-mode Hop() = %d, want 3", got)
	}
	stack := NewTPP(AddrStack, nil, 16)
	stack.Ptr = 24 // six words pushed, two 3-word frames
	if got := stack.Hop(3); got != 2 {
		t.Errorf("stack-mode Hop() = %d, want 2", got)
	}
	if got := stack.Hop(0); got != 0 {
		t.Errorf("stack-mode Hop(0) = %d, want 0", got)
	}
}

// A header read off the wire may claim more hops than its memory holds;
// Hop counts only the records that are there, so a reader indexing
// memory by it stays in range.
func TestTPPHopClampsToMemory(t *testing.T) {
	stack := NewTPP(AddrStack, nil, 2)
	stack.Ptr = 64 // sixteen words pushed into two words of memory
	if got := stack.Hop(2); got != 1 {
		t.Errorf("stack-mode Hop(2) with SP past memory = %d, want the 1 frame memory holds", got)
	}
	if got := stack.Hop(3); got != 0 {
		t.Errorf("stack-mode Hop(3) over 2 words = %d, want 0", got)
	}
	hop := NewTPP(AddrHop, nil, 8)
	hop.Ptr = 9
	if got := hop.Hop(4); got != 2 {
		t.Errorf("hop-mode Hop(4) after 9 hops over 8 words = %d, want the 2 records memory holds", got)
	}
}

func TestTPPCloneIndependence(t *testing.T) {
	orig := NewTPP(AddrStack, []Instruction{{Op: OpPUSH, A: 1}}, 4)
	orig.SetWord(0, 42)
	c := orig.Clone()
	c.SetWord(0, 99)
	c.Ins[0].A = 7
	c.Ptr = 8
	if orig.Word(0) != 42 || orig.Ins[0].A != 1 || orig.Ptr != 0 {
		t.Fatal("Clone shares state with the original")
	}
}

func TestTPPWordAccessors(t *testing.T) {
	p := NewTPP(AddrStack, nil, 3)
	p.SetWord(2, 0x01020304)
	if p.Word(2) != 0x01020304 {
		t.Fatalf("Word(2) = %#x", p.Word(2))
	}
	if p.Mem[8] != 1 || p.Mem[11] != 4 {
		t.Fatal("words must be big-endian")
	}
	if !p.InRange(2) || p.InRange(3) || p.InRange(-1) {
		t.Fatal("InRange bounds wrong")
	}
}
