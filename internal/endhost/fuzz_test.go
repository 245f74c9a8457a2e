package endhost

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// FuzzProberEcho: whatever bytes arrive on the echo-reply port, a
// prober with a collect callback attached counts them as malformed,
// ignores them or hands them to the callback; it never panics, and
// neither does a callback that indexes hop records by TPP.Hop and feeds
// their (switch id, epoch) words to an epoch tracker.
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
		tr := NewEpochTracker()
		read := func(e *core.TPP) {
			frame := max(len(e.Ins), 1)
			for h := 0; h < e.Hop(frame); h++ {
				for w := 0; w < frame; w++ {
					_ = e.Word(h*frame + w)
				}
				tr.Observe(e.Word(h*frame), e.Word(h*frame+frame-1))
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
