package rcp_test

import (
	"testing"

	"repro/internal/aimd"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rcp"
)

// poolRun drives three staggered flows of one scheme for three
// simulated seconds, stops them and lets the fabric drain for one more.
// It returns the pool's counts at launch and after the drain, and how
// many data packets the receivers counted.
func poolRun(v rcp.Variant) (atLaunch, drained core.PoolStats, delivered uint64) {
	cfg := rcp.DefaultFig2Config(v)
	h := rcp.NewHarness(3, cfg.Seed, nil)
	second := netsim.Second
	start := h.Launch(aimd.SchemeFor(v), rcp.Staggered([]netsim.Time{0, second / 2, second}))
	atLaunch = h.Sim.Pool().Stats()
	h.Sim.RunUntil(start + 3*second)
	for _, f := range h.Flows {
		f.Stop()
	}
	h.Sim.RunUntil(start + 4*second)
	for _, bytes := range h.Recv {
		delivered += bytes / rcp.PacketSize
	}
	return atLaunch, h.Sim.Pool().Stats(), delivered
}

// Every paced data packet is a pool draw — and under RCP* every probe,
// echo and rate update too — and every draw comes back: once the
// senders stop and the fabric drains, the pool's books close (nothing
// in flight, nothing lost to a holder), and the blocks it ever
// allocated are bounded by what was in flight at once, not by what was
// sent.  The same run twice gives the same counts to the last block —
// the free list is a function of the seed, which the sync.Pool it
// replaced could not promise.
func TestPoolDrainsToZero(t *testing.T) {
	for _, v := range []rcp.Variant{rcp.VariantStar, rcp.VariantBaseline, rcp.VariantAIMD} {
		t.Run(string(v), func(t *testing.T) {
			atLaunch, st, delivered := poolRun(v)
			t.Logf("%d data packets delivered; pool %+v", delivered, st)
			if delivered < 1000 {
				t.Fatalf("run too small to judge: %d data packets delivered", delivered)
			}
			if st.Issued < delivered {
				t.Errorf("pool issued %d blocks but %d data packets arrived: senders are not drawing from it", st.Issued, delivered)
			}
			if st.Issued != st.Recycled+st.Adopted {
				t.Errorf("pool did not drain: %+v (issued - recycled - adopted = %d)", st, st.Issued-st.Recycled-st.Adopted)
			}
			if st.Adopted != atLaunch.Adopted {
				t.Errorf("%d blocks adopted during the run: a data packet reached a retaining handler", st.Adopted-atLaunch.Adopted)
			}
			if st.Allocated > 256 {
				t.Errorf("pool allocated %d blocks, want O(in flight) <= 256", st.Allocated)
			}
			if _, again, _ := poolRun(v); again != st {
				t.Errorf("same run, different pool counts:\n first %+v\nsecond %+v", st, again)
			}
		})
	}
}
