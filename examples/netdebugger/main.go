// Network debugger example (§2.3): TPP traces verify that the dataplane
// matches the controller's intent, and catch a rule that changed in
// hardware underneath the controller.
//
//	go run ./examples/netdebugger
package main

import (
	"fmt"
	"sort"

	"repro/internal/ndb"
)

func main() {
	res := ndb.Run(ndb.DefaultConfig())

	fmt.Println("phase 1: conforming 2x2 leaf-spine fabric")
	fmt.Printf("  %d packet journeys verified, %d violations\n\n",
		res.CleanTraces, res.CleanViolations)

	fmt.Println("phase 2: a leaf's flow entry is rerouted in hardware (controller unaware)")
	fmt.Printf("  %d journeys flagged:\n", res.BadTraces)
	// Map order is random; print the kinds sorted so the output repeats.
	kinds := make([]ndb.ViolationKind, 0, len(res.ViolationKinds))
	for kind := range res.ViolationKinds {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, kind := range kinds {
		fmt.Printf("    %-14s x%d\n", kind, res.ViolationKinds[kind])
	}
	if len(res.BadViolations) > 0 {
		fmt.Printf("  example: %s\n\n", res.BadViolations[0])
	}

	fmt.Println("overhead for the same visibility:")
	fmt.Printf("  TPP traces:      0 extra packets, %d bytes carried in-band\n", res.TPPInBandBytes)
	fmt.Printf("  ndb copies:      %d extra packets, %d extra bytes on the network\n",
		res.BaselineCopies, res.BaselineCopyBytes)
	fmt.Printf("  journeys agree:  %v\n", res.JourneysAgree)
}
