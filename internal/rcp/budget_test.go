package rcp

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestFigure2AllocBudget pins what one warm seed-1 Figure 2 run
// allocates, set-up included, as a count: 3 184 objects while every
// collect callback owned its echo TPP, 1 398 while the switches built
// their ports, meters and queues one by one, the pool grew a block at a
// time and the sampler allocated a row per tick; 835 while each fresh
// pool block allocated its payload, option, instruction and memory
// buffers one by one; ≈ 420 since they are carved from the pool's
// arenas and the free list is threaded through the blocks.  What is
// left is set-up and per-run state.  The count repeats exactly, so it is
// checked in plain builds only (`make budgets`): under -race sync.Pool
// drops a random share of its Puts, and under -tags pooldebug the
// sanitizer formats a call-site string at every Recycle.
func TestFigure2AllocBudget(t *testing.T) {
	if core.PoolDebug || raceDetector {
		t.Skip("allocation counts do not repeat under pooldebug or the race detector")
	}
	cfg := DefaultFig2Config(VariantStar)
	RunFigure2(cfg) // warm-up: lazily grown runtime and package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunFigure2(cfg)
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("one Figure 2 run allocates %d objects", n)
	if n > 470 {
		t.Errorf("one Figure 2 run allocates %d objects, budget 470", n)
	}
}

// TestStarRunBudgets pins what an RCP* run costs the host, as counts:
// events executed per frame a sender's NIC transmits, and heap
// allocations per data packet delivered.  Three simulated seconds on the
// default harness with the flows starting at 0, 1 and 2 s, counted
// across RunUntil only (set-up excluded).  Both are upper bounds with
// slack (0.040 allocations per packet, with or without -race, and 4.86
// events per frame as measured, a switch hop being one event; 0.111 while a fresh pool block
// allocated each of its buffers, 0.15 while the pool grew a block at a
// time instead of a slab of 16); what they catch is a
// per-packet cost coming back: a data packet built on the heap instead
// of drawn from the Sim's pool, or one the receiver adopts instead of
// returning (+1 allocation per packet: 1.78), a closure per paced packet
// (+1 more), an unconditional transmit-complete event per send on the
// delayed links (+2 events per
// frame: 7.00), an echo TPP of its own per collect callback instead of
// the prober's borrowed one (0.18), a probe round trip rebuilt from
// separately allocated parts (0.65: heap probes, echoes and updates, a
// pending entry, timer and closure per probe, a parse into three
// buffers).  The allocation budget is not checked
// under -tags pooldebug, whose sanitizer formats a call-site string at
// every Recycle.
func TestStarRunBudgets(t *testing.T) {
	cfg := DefaultFig2Config(VariantStar)
	h := NewHarness(3, cfg.Seed, nil)
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
	t.Logf("%d sender frames, %d data packets delivered: %.2f events/frame, %.3f mallocs/packet; %d arms discarded, heap peak %d",
		sent, delivered, eventsPerFrame, mallocsPerPacket, st.Discarded, st.HeapPeak)
	if eventsPerFrame > 5.5 {
		t.Errorf("%.2f events executed per sender frame, budget 5.5", eventsPerFrame)
	}
	if mallocsPerPacket > 0.06 && !core.PoolDebug {
		t.Errorf("%.3f allocations per delivered data packet, budget 0.06", mallocsPerPacket)
	}
}
