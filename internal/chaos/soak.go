package chaos

import (
	"repro/internal/accounting"
	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// soakPhases is the phase graph the crash-restart and hostile-tenant
// soaks share: provision the spec, arm the fault plan and start the
// workloads (both once the fabric is provisioned), soak until the end,
// then verify the live fabric still equals the spec.
func soakPhases(faultsName string, events []faults.Event, workloads []string,
	until netsim.Time, assert string) []scenario.Phase {
	return []scenario.Phase{
		{Name: "provision", Kind: scenario.KindProvision, Budget: 5, Backoff: 10 * netsim.Millisecond},
		{Name: faultsName, Kind: scenario.KindFaults, Needs: []string{"provision"}, Events: events},
		{Name: "work", Kind: scenario.KindWorkloads, Needs: []string{"provision"}, Hooks: workloads},
		{Name: "soak", Kind: scenario.KindRun, Needs: []string{"work", faultsName}, Until: until},
		{Name: "check", Kind: scenario.KindAsserts, Needs: []string{"soak"}, Hooks: []string{assert}},
	}
}

// leaked is the conservation audit (see Result.Leaked) summed over every
// port's queue of the given switches.
func leaked(switches ...*asic.Switch) int64 {
	var n int64
	for _, sw := range switches {
		for p := 0; p < sw.Ports(); p++ {
			q := sw.Port(p).Queue()
			n += int64(q.EnqPkts) - int64(q.DeqPkts+q.FlushedPkts+uint64(q.Len()))
		}
	}
	return n
}

// tally is the shared-counter workload: a writer on one host adds 1 to
// an SRAM word on the home switch every 25ms, and a poller on another
// host reads it every 100ms and tracks deltas — it must flag, not
// corrupt, the discontinuity when a crash zeroes the word.  Both probe
// across the fabric toward the other's side, so each path transits the
// home switch.
type tally struct {
	writer, poller *accounting.Counter

	Polls          int
	NegativeDeltas int
	WriterDone     uint64 // adds the writer saw resolve
	Last           uint32 // last value the poller observed
}

func newTally(writerHost, writerDst, pollerHost, pollerDst *endhost.Host, home *asic.Switch, addr mem.Addr) *tally {
	counter := func(from, to *endhost.Host) *accounting.Counter {
		prober := endhost.NewProber(from)
		prober.SetDefaults(endhost.ProbeConfig{
			Timeout: 100 * netsim.Millisecond, Retries: 2, Backoff: 2})
		return accounting.NewCounter(prober, to.MAC, to.IP, home.ID(), addr, accounting.Atomic)
	}
	return &tally{writer: counter(writerHost, writerDst), poller: counter(pollerHost, pollerDst)}
}

// start arms both tickers.  The writer stops adding at writeUntil
// (zero: never), so a harness that reconciles WriterDone against the
// SRAM word can let every in-flight CSTORE chain resolve first.
func (t *tally) start(sim *netsim.Sim, writeUntil netsim.Time) {
	added := func(uint32) { t.WriterDone++ }
	polled := func(value uint32, delta int64, discont bool) {
		t.Polls++
		if delta < 0 {
			t.NegativeDeltas++
		}
		t.Last = value
	}
	sim.Every(20*netsim.Millisecond, 25*netsim.Millisecond, func() {
		if writeUntil == 0 || sim.Now() < writeUntil {
			t.writer.Add(1, added)
		}
	})
	sim.Every(60*netsim.Millisecond, 100*netsim.Millisecond, func() {
		t.poller.Poll(polled)
	})
}
