package mem

import (
	"slices"
	"strings"
	"testing"
)

func TestLookupPaperMnemonics(t *testing.T) {
	// Every mnemonic spelled out in the paper's example programs must
	// resolve.
	paper := []string{
		"Queue:QueueSize",               // §2.1
		"Switch:SwitchID",               // §2.2 phase 1
		"Link:QueueSize",                // §2.2 phase 1
		"Link:RX-Utilization",           // §2.2 phase 1
		"Link:RCP-RateRegister",         // §2.2 phase 1 & 3
		"Switch:ID",                     // §2.3
		"PacketMetadata:MatchedEntryID", // §2.3
		"PacketMetadata:InputPort",      // §2.3
	}
	for _, name := range paper {
		if _, ok := LookupSymbol(name); !ok {
			t.Errorf("paper mnemonic %q does not resolve", name)
		}
	}
}

func TestSymbolAliases(t *testing.T) {
	a1, _ := LookupSymbol("Switch:SwitchID")
	a2, _ := LookupSymbol("Switch:ID")
	if a1 != a2 {
		t.Error("Switch:ID must alias Switch:SwitchID")
	}
	q1, _ := LookupSymbol("Queue:QueueSize")
	q2, _ := LookupSymbol("Queue:BytesEnqueued")
	if q1 != q2 {
		t.Error("Queue:QueueSize must alias Queue:BytesEnqueued")
	}
}

func TestSymbolAddressesLandInTheirNamespace(t *testing.T) {
	for _, name := range symbolNames() {
		a, _ := LookupSymbol(name)
		ns := NamespaceOf(a)
		prefix := strings.SplitN(name, ":", 2)[0]
		want := map[string]Namespace{
			"Switch": NSSwitch, "Link": NSPort, "Queue": NSQueue,
			"PacketMetadata": NSPacket,
		}[prefix]
		if ns != want {
			t.Errorf("symbol %q resolves to namespace %v, want %v", name, ns, want)
		}
	}
}

func TestNameOfRoundTrip(t *testing.T) {
	// Every mnemonic prints as itself except the three aliases, which
	// print as the canonical spelling of their word.
	alias := map[string]string{
		"Switch:ID":           "Switch:SwitchID",
		"Queue:BytesEnqueued": "Queue:QueueSize",
		"Link:Scratch0":       "Link:RCP-RateRegister",
	}
	for _, name := range symbolNames() {
		want := name
		if c, ok := alias[name]; ok {
			want = c
		}
		a, _ := LookupSymbol(name)
		if got := NameOf(a); got != want {
			t.Errorf("NameOf(LookupSymbol(%q)) = %q, want %q", name, got, want)
		}
	}
	if got := NameOf(SRAMBase + 0x20); got != "SRAM:0x20" {
		t.Errorf("SRAM NameOf = %q", got)
	}
	if got := NameOf(PortAbs(2, 0)); got != "Port2:0x0" {
		t.Errorf("PortAbs NameOf = %q", got)
	}
}

func TestParseSymbolOrAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
	}{
		{"Switch:SwitchID", SwitchBase + SwitchID},
		{"SRAM:0x10", SRAMBase + 0x10},
		{"SRAM:16", SRAMBase + 16},
		{"Port3:0", PortAbs(3, 0)},
		{"0x205", 0x205},
		{"517", 517},
		{"SRAM:0", SRAMBase},
		{"Port2:8", PortAbs(2, 8)},
		{"Port2:0x8", PortAbs(2, 8)},
	}
	for _, c := range cases {
		got, err := ParseSymbolOrAddr(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSymbolOrAddr(%q) = %#x, %v; want %#x", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{
		"Nope:Thing", "SRAM:99999", "Port999:0", "0x9999", "xyz",
		// A number is the whole token, not its longest numeric prefix.
		"SRAM:12abc", "0x5junk", "SRAM:1e2", "Port1:3junk", "0x10 0x20",
		"SRAM:", "SRAM:-1", "Port1:", "Port:3", "Port1x:3", "Port-1:3", "12 ", "",
		// Nor does it take a sign.
		"SRAM:+5", "SRAM:-0", "Port+1:3", "Port1:+3", "Port-0:3",
	} {
		if _, err := ParseSymbolOrAddr(bad); err == nil {
			t.Errorf("ParseSymbolOrAddr(%q) should fail", bad)
		}
	}
}

func TestSymbolNamesSortedAndComplete(t *testing.T) {
	// Exactly the mnemonics `tppasm symbols` prints, in its order.
	want := []string{
		"Link:Capacity", "Link:Drop-Bytes", "Link:Enq-Bytes",
		"Link:QueueSize", "Link:RCP-RateRegister", "Link:RX-Bytes",
		"Link:RX-Utilization", "Link:SNR", "Link:Scratch0", "Link:Scratch1",
		"Link:Scratch2", "Link:Scratch3", "Link:TX-Bytes", "Link:TX-Utilization",
		"PacketMetadata:AlternateRoutes", "PacketMetadata:HopLatency",
		"PacketMetadata:InputPort", "PacketMetadata:MatchedEntryID",
		"PacketMetadata:MatchedEntryVersion", "PacketMetadata:OutputPort",
		"PacketMetadata:QueueID", "PacketMetadata:UIDHi", "PacketMetadata:UIDLo",
		"Queue:BytesDropped", "Queue:BytesEnqueued", "Queue:MaxBytes",
		"Queue:Packets", "Queue:PacketsDropped", "Queue:QueueSize",
		"Switch:ClockHi", "Switch:ClockLo", "Switch:Epoch",
		"Switch:FlowTableVersion", "Switch:ID", "Switch:L2TableSize",
		"Switch:L3TableSize", "Switch:NumPorts", "Switch:PacketsSwitched",
		"Switch:SwitchID", "Switch:TCAMSize", "Switch:TPPsExecuted",
	}
	if got := symbolNames(); !slices.Equal(got, want) {
		t.Fatalf("Symbols() names = %q\nwant %q", got, want)
	}
}

// symbolNames is the Name column of Symbols, in its order.
func symbolNames() []string {
	var names []string
	for _, s := range Symbols() {
		names = append(names, s.Name)
	}
	return names
}
