package endhost

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// FuzzProberEcho: whatever bytes arrive on the echo-reply port, a
// prober with an epoch tracker and a collect callback attached — the
// way RCP* and the soaks run it — counts them as malformed, ignores
// them or hands them to the callback; it never panics, and neither do
// the tracker and a callback that index hop records by TPP.Hop.
func FuzzProberEcho(f *testing.F) {
	collect, err := CollectProgram([]mem.Addr{mem.SwitchBase + mem.SwitchID, mem.SwitchBase + mem.SwitchEpoch}, 2, 5)
	if err != nil {
		f.Fatal(err)
	}
	echo := func(mode core.AddrMode, ptr uint16, cookie uint32) []byte {
		e := *collect
		e.Mode, e.Ptr = mode, ptr
		return binary.BigEndian.AppendUint32(e.AppendTo(nil), cookie)
	}
	f.Add(echo(core.AddrStack, 8, 1))     // one hop, the pending cookie
	f.Add(echo(core.AddrStack, 64, 1))    // stack pointer past memory
	f.Add(echo(core.AddrHop, 300, 1))     // hop counter past memory
	f.Add(echo(core.AddrStack, 8, 0xbad)) // superseded cookie
	f.Add(echo(core.AddrStack, 8, 1)[:20])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		sim := netsim.New(1)
		a, b := pair(sim, 8_000_000)
		p := NewProber(a)
		p.SetEpochTracker(NewEpochTracker(nil))
		read := func(e *core.TPP) {
			frame := max(len(e.Ins), 1)
			for h := 0; h < e.Hop(frame); h++ {
				for w := 0; w < frame; w++ {
					_ = e.Word(h*frame + w)
				}
			}
		}
		if _, ok := p.ProbeCfg(b.MAC, b.IP, collect, ProbeConfig{}, read, nil); !ok {
			t.Fatal("probe not registered")
		}
		p.onEcho(&core.Packet{Payload: payload})
		if p.Matched+p.Malformed > 1 {
			t.Fatalf("one echo counted %d times", p.Matched+p.Malformed)
		}
	})
}
