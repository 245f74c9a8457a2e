package accounting

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// TestCounterRoundTripAllocs pins a warm counter's probe path at zero
// allocations: its programs are built once and stamped per send, and
// its operations, handlers bound, come off a free list and go back on
// every path — an Atomic Add's read and CSTORE, a Racy Add, a Poll, and
// Adds whose probes the prober reaps.
func TestCounterRoundTripAllocs(t *testing.T) {
	if core.PoolDebug {
		t.Skip("the pooldebug sanitizer formats a call site at every Recycle")
	}
	cfg := endhost.ProbeConfig{Timeout: 10 * netsim.Millisecond, Retries: 1, Backoff: 2}
	const reps = 50
	// zeroAllocs warms run up (the op, pool blocks, the pending entry and
	// its timer, L2 learning), checks that it then allocates nothing,
	// and returns how many times it ran.
	zeroAllocs := func(t *testing.T, run func()) int {
		t.Helper()
		run()
		run()
		if got := testing.AllocsPerRun(reps, run); got != 0 {
			t.Errorf("allocates %v objects per run, want 0", got)
		}
		return 2 + 1 + reps // AllocsPerRun runs once more to warm up
	}
	add := func(proto Protocol) func(*testing.T) {
		return func(t *testing.T) {
			f := setup(t)
			f.probers[0].SetDefaults(cfg)
			c := NewCounter(f.probers[0], f.target.MAC, f.target.IP, f.sw.ID(), f.addr, proto)
			var last uint32
			done := func(v uint32) { last = v }
			n := zeroAllocs(t, func() {
				c.Add(1, done)
				f.sim.RunUntil(f.sim.Now() + 2*netsim.Millisecond)
			})
			if got := f.sw.SRAM(f.sramSlot); got != uint32(n) || last != uint32(n) || len(c.free) != 1 {
				t.Fatalf("counter %d, last done %d, %d idle ops; want %d, %d, 1", got, last, len(c.free), n, n)
			}
		}
	}
	t.Run("atomic-add", add(Atomic))
	t.Run("racy-add", add(Racy))
	t.Run("poll", func(t *testing.T) {
		f := setup(t)
		f.probers[0].SetDefaults(cfg)
		c := NewCounter(f.probers[0], f.target.MAC, f.target.IP, f.sw.ID(), f.addr, Atomic)
		polls := 0
		polled := func(uint32, int64, bool) { polls++ }
		if n := zeroAllocs(t, func() {
			c.Poll(polled)
			f.sim.RunUntil(f.sim.Now() + 2*netsim.Millisecond)
		}); polls != n {
			t.Fatalf("%d polls reported, want %d", polls, n)
		}
	})
	t.Run("reaped-batch", func(t *testing.T) {
		// One host alone on a switch: a probe toward an unknown MAC
		// floods to no port and dies there, so every read is reaped.
		sim := netsim.New(1)
		net := topo.NewNetwork(sim)
		sw := net.AddSwitch(asic.Config{ID: 5, Ports: 2})
		h := net.AddHost()
		net.LinkHost(h, sw, topo.Mbps(100, 50*netsim.Microsecond))
		p := endhost.NewProber(h)
		p.SetDefaults(cfg)
		c := NewCounter(p, core.MACFromUint64(0x02000000ffff), core.IPv4Addr(10, 0, 0, 99),
			sw.ID(), mem.SRAMBase, Atomic)
		const batch = 4
		resolved := 0
		done := func(uint32) { resolved++ }
		n := zeroAllocs(t, func() {
			for i := 0; i < batch; i++ {
				c.Add(1, done)
			}
			sim.RunUntil(sim.Now() + 100*netsim.Millisecond)
		})
		if resolved != 0 || p.TimedOut != uint64(batch*n) || p.Outstanding() != 0 || len(c.free) != batch {
			t.Fatalf("%d resolved, %d reaped, %d outstanding, %d idle ops; want 0, %d, 0, %d",
				resolved, p.TimedOut, p.Outstanding(), len(c.free), batch*n, batch)
		}
	})
}
