package asic

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/tcpu"
)

// The static load model the verifier trusts (mem.Readable) must agree
// with the live per-packet view, and with the control plane's ReadWord,
// for every one of the 4096 virtual addresses: if they ever drift, the
// verifier's "verified programs never fault" guarantee silently breaks.
// Stores need no such twin — the view and the verifier both decide them
// through mem.StoreFault — but the view must still honour its verdict.
func TestStaticAddressModelMatchesView(t *testing.T) {
	for _, ports := range []int{1, 2, 4} {
		sim := netsim.New(1)
		sw := New(sim, Config{ID: 1, Ports: ports, TCPU: tcpu.Config{}})
		v := sw.ViewForTesting(nil, 0)

		for a := 0; a < mem.AddrSpaceWords; a++ {
			addr := mem.Addr(a)
			_, loadErr := v.Load(addr)
			if got, want := mem.Readable(addr, ports), loadErr == nil; got != want {
				t.Fatalf("ports=%d addr %s (%#x): Readable=%v but view load err=%v",
					ports, mem.NameOf(addr), addr.ByteAddr(), got, loadErr)
			}
			if _, ok := sw.ReadWord(addr); ok != mem.Readable(addr, ports) {
				t.Fatalf("ports=%d addr %s (%#x): Readable=%v but ReadWord ok=%v",
					ports, mem.NameOf(addr), addr.ByteAddr(), !ok, ok)
			}
			storeErr := v.Store(addr, 0)
			if got, want := mem.StoreFault(addr, ports) == 0, storeErr == nil; got != want {
				t.Fatalf("ports=%d addr %s (%#x): StoreFault==0 is %v but view store err=%v",
					ports, mem.NameOf(addr), addr.ByteAddr(), got, storeErr)
			}
		}
	}
}
