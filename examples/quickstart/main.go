// Quickstart: assemble a tiny packet program, send it across a small
// simulated network, and read back what the switches wrote into it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/topo"
)

func main() {
	// 1. A deterministic simulated network: two hosts at the ends of
	//    three switches (the Figure 1 walk).
	sim := netsim.New(42)
	net, src, dst, _ := topo.Line(sim,
		3,                                    // switches
		topo.Mbps(80, 10*netsim.Microsecond), // host links
		topo.Mbps(8, 10*netsim.Microsecond),  // switch-switch links
		nil, nil)                             // default switches, untraced links
	net.PrimeL2(5 * netsim.Millisecond) // let the MAC tables learn

	// 2. A tiny packet program, in the paper's assembly syntax: record
	//    the switch id and the egress queue occupancy at every hop.
	prog := asm.MustAssemble(`
		.mem 6                   # 2 words/hop x 3 hops
		PUSH [Switch:SwitchID]
		PUSH [Queue:QueueSize]
	`)

	// 3. Some cross traffic, so there is a queue to observe.
	for i := 0; i < 20; i++ {
		src.Send(src.NewPacket(dst.MAC, dst.IP, 5000, 5001, 986))
	}

	// 4. Probe: the TPP rides to dst, executing on every switch; dst
	//    echoes the executed program back.
	prober := endhost.NewProber(src)
	var echoed *core.TPP
	prober.Probe(dst.MAC, dst.IP, prog.TPP, func(e *core.TPP) { echoed = e.Clone() })
	sim.RunUntil(sim.Now() + netsim.Second)
	if echoed == nil {
		log.Fatal("probe lost")
	}

	// 5. Interpret the packet memory: the end-host knows the layout it
	//    allocated.
	fmt.Println("hop  switch  queue(bytes)")
	for hop := 0; hop < echoed.Hop(2); hop++ {
		fmt.Printf("%3d  %6d  %12d\n", hop+1, echoed.Word(2*hop), echoed.Word(2*hop+1))
	}
}
