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
	"repro/internal/trace"
)

// runAccounting demonstrates §2.2's consistency argument: three hosts
// concurrently increment one shared SRAM counter through the network,
// once with CSTORE (linearizable) and once with blind read-modify-write.
func runAccounting(out *output) error {
	run := func(proto accounting.Protocol) (final uint32, retries uint64) {
		sim := netsim.New(1)
		n := topo.NewNetwork(sim)
		sw := n.AddSwitch(asic.Config{ID: 5, Ports: 8})
		var writers []*endhost.Host
		var probers []*endhost.Prober
		for i := 0; i < 3; i++ {
			h := n.AddHost()
			n.LinkHost(h, sw, topo.Mbps(100, 50*netsim.Microsecond))
			writers = append(writers, h)
			probers = append(probers, endhost.NewProber(h))
		}
		target := n.AddHost()
		n.LinkHost(target, sw, topo.Mbps(100, 50*netsim.Microsecond))
		n.PrimeL2(5 * netsim.Millisecond)

		// The counter's SRAM word is a controller-provisioned service; a
		// clean first converge finishes before the call returns, so
		// the bound of zero lets no simulated time pass.
		ctl := fabric.New(sim)
		ctl.Register("sw", sw)
		spec := fabric.Spec{Devices: []fabric.DeviceSpec{{Device: "sw",
			Services: []fabric.Service{{Name: "accounting", Words: 1}}}}}
		if res, _ := ctl.ConvergeWithin(spec, fabric.ConvergeConfig{}, 0); !res.Converged {
			panic(fmt.Sprintf("accounting: provisioning: %+v", res.Pending))
		}
		st, _ := ctl.ReadState("sw")
		addr := st.Services[0].Region.Base

		counters := make([]*accounting.Counter, len(writers))
		for i := range writers {
			c := accounting.NewCounter(probers[i], target.MAC, target.IP,
				sw.ID(), addr, proto)
			counters[i] = c
			remaining := 50
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

	atomicFinal, atomicRetries := run(accounting.Atomic)
	racyFinal, _ := run(accounting.Racy)

	out.printf("§2.2 consistency: 3 hosts x 50 concurrent increments of one shared SRAM counter\n\n")
	tbl := trace.NewTable("protocol", "final value", "expected", "lost updates", "CSTORE retries")
	tbl.Row("CSTORE (linearizable)", atomicFinal, 150, 150-int(atomicFinal), atomicRetries)
	tbl.Row("LOAD+STORE (racy)", racyFinal, 150, 150-int(racyFinal), "-")
	out.printf("%s\nthe conditional store instruction is what makes in-network accounting exact\n", tbl.String())

	c := out.csv("accounting.csv", "protocol", "final", "expected", "retries")
	c.Row("cstore", atomicFinal, 150, atomicRetries)
	c.Row("racy", racyFinal, 150, 0)
	return nil
}
