// Accounting example (§2.2's consistency discussion): three hosts
// concurrently increment a shared counter in switch SRAM through the
// network.  With CSTORE the tally is exact; with a blind
// read-modify-write, concurrent updates vanish.
//
//	go run ./examples/accounting
package main

import (
	"fmt"

	"repro/internal/accounting"
	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
)

const (
	writers       = 3
	incsPerWriter = 50
)

func main() {
	for _, proto := range []accounting.Protocol{accounting.Atomic, accounting.Racy} {
		final, retries := run(proto)
		name := "CSTORE (linearizable)"
		if proto == accounting.Racy {
			name = "LOAD+STORE (racy)   "
		}
		fmt.Printf("%s  final=%3d of %d", name, final, writers*incsPerWriter)
		if proto == accounting.Atomic {
			fmt.Printf("  (%d retries resolved every conflict)", retries)
		} else {
			fmt.Printf("  (%d updates silently lost)", writers*incsPerWriter-int(final))
		}
		fmt.Println()
	}
}

func run(proto accounting.Protocol) (final uint32, retries uint64) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 5, Ports: 8})

	var hosts []*endhost.Host
	var probers []*endhost.Prober
	for i := 0; i < writers; i++ {
		h := n.AddHost()
		n.LinkHost(h, sw, topo.Mbps(100, 50*netsim.Microsecond))
		hosts = append(hosts, h)
		probers = append(probers, endhost.NewProber(h))
	}
	target := n.AddHost()
	n.LinkHost(target, sw, topo.Mbps(100, 50*netsim.Microsecond))
	n.PrimeL2(5 * netsim.Millisecond)

	// The fabric controller carves out the counter's SRAM word as a
	// service.  A clean first converge finishes before the call
	// returns, so a bound of zero simulated time is enough.
	ctl := fabric.New(sim)
	ctl.Register("sw", sw)
	spec := fabric.Spec{Devices: []fabric.DeviceSpec{{Device: "sw",
		Services: []fabric.Service{{Name: "accounting", Words: 1}}}}}
	if res, _ := ctl.ConvergeWithin(spec, fabric.ConvergeConfig{}, 0); !res.Converged {
		panic(fmt.Sprintf("provisioning the counter: %+v", res.Pending))
	}
	st, _ := ctl.ReadState("sw")
	addr := st.Services[0].Region.Base

	counters := make([]*accounting.Counter, writers)
	for i := range hosts {
		c := accounting.NewCounter(probers[i], target.MAC, target.IP,
			sw.ID(), addr, proto)
		counters[i] = c
		remaining := incsPerWriter
		var next func(uint32)
		next = func(uint32) {
			remaining--
			if remaining > 0 {
				c.Add(1, next)
			}
		}
		c.Add(1, next)
	}
	sim.RunUntil(sim.Now() + 30*netsim.Second)

	for _, c := range counters {
		retries += c.Retries
	}
	return sw.SRAM(mem.SRAMIndex(addr)), retries
}
