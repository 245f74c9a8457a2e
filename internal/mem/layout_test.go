package mem

import (
	"testing"
	"testing/quick"
)

func TestNamespaceOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Namespace
	}{
		{0x000, NSSwitch},
		{0x0FF, NSSwitch},
		{0x100, NSPort},
		{0x1FF, NSPort},
		{0x200, NSQueue},
		{0x300, NSPacket},
		{0x400, NSSRAM},
		{0xBFF, NSSRAM},
		{0xC00, NSPortAbs},
		{0xFFF, NSPortAbs},
		{0x1000, NSInvalid},
	}
	for _, c := range cases {
		if got := NamespaceOf(c.a); got != c.want {
			t.Errorf("NamespaceOf(%#x) = %v, want %v", c.a, got, c.want)
		}
	}
}

// namespaceChain is NamespaceOf as a chain of comparisons, the form it
// had before the page table; the table must agree with it everywhere.
func namespaceChain(a Addr) Namespace {
	switch {
	case a >= AddrSpaceWords:
		return NSInvalid
	case a >= PortAbsBase:
		return NSPortAbs
	case a >= SRAMBase:
		return NSSRAM
	case a >= PacketBase:
		return NSPacket
	case a >= QueueBase:
		return NSQueue
	case a >= PortBase:
		return NSPort
	default:
		return NSSwitch
	}
}

// TestNamespaceOfMatchesChain checks the page table against the
// comparison chain on every one of the 65 536 Addr values, in range and
// out of it.
func TestNamespaceOfMatchesChain(t *testing.T) {
	for a := 0; a <= 0xFFFF; a++ {
		if got, want := NamespaceOf(Addr(a)), namespaceChain(Addr(a)); got != want {
			t.Fatalf("NamespaceOf(%#x) = %v, want %v", a, got, want)
		}
	}
}

func TestNamespaceString(t *testing.T) {
	if NSPort.String() != "Link" || NSPacket.String() != "PacketMetadata" {
		t.Error("namespace names must match the paper's terminology")
	}
	if NSInvalid.String() != "Invalid" {
		t.Error("invalid namespace name")
	}
}

func TestByteAddr(t *testing.T) {
	if got := Addr(0x2C0).ByteAddr(); got != 0xB00 {
		t.Errorf("ByteAddr = %#x", got)
	}
}

func TestSRAMIndex(t *testing.T) {
	if got := SRAMIndex(SRAMBase + 17); got != 17 {
		t.Errorf("SRAMIndex = %d", got)
	}
	if got := SRAMIndex(PortBase); got != -1 {
		t.Errorf("non-SRAM address returned %d", got)
	}
}

func TestPortAbsRoundTrip(t *testing.T) {
	a := PortAbs(3, PortQueueSize)
	port, stat := PortAbsDecode(a)
	if port != 3 || stat != PortQueueSize {
		t.Fatalf("decode(%#x) = (%d,%d)", a, port, stat)
	}
	if NamespaceOf(a) != NSPortAbs {
		t.Fatal("PortAbs address not in the absolute window")
	}
}

func TestPortAbsRoundTripQuick(t *testing.T) {
	f := func(p, s uint8) bool {
		port := int(p) % MaxPorts
		stat := int(s) % PortAbsStride
		gp, gs := PortAbsDecode(PortAbs(port, stat))
		return gp == port && gs == stat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPortAbsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PortAbs(MaxPorts, 0)
}

func TestWritableProtectionMap(t *testing.T) {
	writable := []Addr{
		SRAMBase,
		SRAMBase + SRAMWords - 1,
		PortBase + PortScratchBase, // Link:RCP-RateRegister
		PortBase + PortScratchBase + PortScratchWords - 1,
		PortAbs(5, PortScratchBase),
	}
	for _, a := range writable {
		if !Writable(a) {
			t.Errorf("%s (%#x) should be writable", NameOf(a), a)
		}
	}
	readonly := []Addr{
		SwitchBase + SwitchID,
		PortBase + PortQueueSize,
		PortBase + PortCapacity,
		QueueBase + QueueBytes,
		PacketBase + PacketInputPort,
		PortAbs(5, PortQueueSize),
	}
	for _, a := range readonly {
		if Writable(a) {
			t.Errorf("%s (%#x) must be read-only to TPPs", NameOf(a), a)
		}
	}
}

func TestStatRegionsDoNotOverlapScratch(t *testing.T) {
	// The per-port statistics indexes must fit below the scratch area
	// or above it, never inside it.
	stats := []int{PortQueueSize, PortRXUtil, PortTXUtil, PortRXBytes,
		PortTXBytes, PortDropBytes, PortEnqBytes, PortCapacity, PortSNR}
	for _, s := range stats {
		if s >= PortScratchBase && s < PortScratchBase+PortScratchWords {
			t.Errorf("statistic index %d collides with task scratch", s)
		}
		if s >= PortAbsStride {
			t.Errorf("statistic index %d exceeds the port block size", s)
		}
	}
}
