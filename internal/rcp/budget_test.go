package rcp

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// TestStarRunBudgets pins what an RCP* run costs the host, as counts:
// events executed per frame a sender's NIC transmits, and heap
// allocations per data packet delivered.  Three simulated seconds on the
// default harness with the flows starting at 0, 1 and 2 s, counted
// across RunUntil only (set-up excluded).  Both are upper bounds with
// slack (0.18 allocations per packet — mostly the echo TPPs the collect
// callbacks own — and 6.84 events per frame as measured); what they
// catch is a per-packet cost coming back: a data packet built on the
// heap instead of drawn from the Sim's pool, or one the receiver adopts
// instead of returning (+1 allocation per packet: 1.78), a closure per
// paced packet (+1 more), an unconditional transmit-complete event per
// send on the delayed links (+2 events per frame: 9.00), a probe round
// trip rebuilt from separately allocated parts (0.65: heap probes,
// echoes and updates, a pending entry, timer and closure per probe, a
// parse into three buffers).  The allocation budget is not checked
// under -tags pooldebug, whose sanitizer formats a call-site string at
// every Recycle.
func TestStarRunBudgets(t *testing.T) {
	cfg := DefaultFig2Config(VariantStar)
	h := NewHarness(3, cfg.BottleneckMbps, cfg.EdgeMbps, cfg.Params, cfg.Seed, nil)
	second := netsim.Second
	start := h.Launch(SchemeFor(VariantStar), Staggered([]netsim.Time{0, second, 2 * second}))

	frames := func() (n uint64) {
		for _, s := range h.Senders {
			n += s.NIC.Sent
		}
		return n
	}
	var before, after runtime.MemStats
	events0, frames0 := h.Sim.Stats().Executed, frames()
	runtime.ReadMemStats(&before)
	h.Sim.RunUntil(start + 3*second)
	runtime.ReadMemStats(&after)

	var delivered uint64
	for _, bytes := range h.Recv {
		delivered += bytes / PacketSize
	}
	sent := frames() - frames0
	if sent < 3000 || delivered < 3000 {
		t.Fatalf("run too small to judge: %d frames sent, %d data packets delivered", sent, delivered)
	}
	st := h.Sim.Stats()
	eventsPerFrame := float64(st.Executed-events0) / float64(sent)
	mallocsPerPacket := float64(after.Mallocs-before.Mallocs) / float64(delivered)
	t.Logf("%d sender frames, %d data packets delivered: %.2f events/frame, %.2f mallocs/packet; %d arms discarded, heap peak %d",
		sent, delivered, eventsPerFrame, mallocsPerPacket, st.Discarded, st.HeapPeak)
	if eventsPerFrame > 7.5 {
		t.Errorf("%.2f events executed per sender frame, budget 7.5", eventsPerFrame)
	}
	if mallocsPerPacket > 0.35 && !core.PoolDebug {
		t.Errorf("%.2f allocations per delivered data packet, budget 0.35", mallocsPerPacket)
	}
}
