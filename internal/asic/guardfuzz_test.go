package asic_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/tcpu"
	"repro/internal/verify"
)

// FuzzGuard pins the isolation subsystem's central claims.  Any
// program that parses — verified or hostile garbage — executed as a
// guest tenant under a fuzz-chosen ACL and partition:
//
//  1. never mutates a word outside its grant: every out-of-partition
//     SRAM word still holds its pre-seeded pattern afterwards;
//  2. never observes one: two switches identical except for the
//     contents of out-of-partition SRAM (a differential pair, one the
//     other's unpartitioned shadow) produce bit-identical echoes; and
//  3. if the static verifier accepts it against the very same grant,
//     the dynamic guard denies nothing — "verified against the grant"
//     implies "never faults at runtime".
func FuzzGuard(f *testing.F) {
	sramRel := func(k int) uint16 { return uint16(mem.SRAMBase + mem.Addr(k)) }
	seeds := []*core.TPP{
		// In-partition round trip.
		core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpSTORE, A: sramRel(0), B: 0},
			{Op: core.OpLOAD, A: sramRel(0), B: 1},
		}, 2),
		// Far out-of-partition probe: must poison, not leak.
		core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpLOAD, A: sramRel(mem.SRAMWords - 1), B: 0},
			{Op: core.OpSTORE, A: sramRel(mem.SRAMWords - 1), B: 1},
		}, 2),
		// Atomic path through the guard.
		core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpCSTORE, A: sramRel(1), B: 0},
		}, 3),
		// Shared namespaces: statistics reads, a scratch-word write.
		core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
			{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
			{Op: core.OpSTORE, A: uint16(mem.PortBase + mem.PortScratchBase), B: 1},
		}, 4),
	}
	for _, s := range seeds {
		f.Add(byte(0xff), byte(0xff), uint16(64), s.AppendTo(nil))
	}
	f.Add(byte(0), byte(0), uint16(1), seeds[0].AppendTo(nil))

	const ports, tid = 2, guard.TenantID(5)
	sim := netsim.New(1)
	// The differential pair: same ID, same ports, same clock — the only
	// divergence each round is the out-of-partition SRAM fill below.
	swA := asic.New(sim, asic.Config{ID: 1, Ports: ports, Guard: true})
	swB := asic.New(sim, asic.Config{ID: 1, Ports: ports, Guard: true})

	f.Fuzz(func(t *testing.T, aclLo, aclHi byte, rawWords uint16, data []byte) {
		var tpp core.TPP
		if _, err := core.ParseTPP(data, &tpp); err != nil {
			return
		}
		acl := guard.ACL{
			Switch:  guard.Perm(aclLo) & guard.PermRW,
			Port:    guard.Perm(aclLo>>2) & guard.PermRW,
			Queue:   guard.Perm(aclLo>>4) & guard.PermRW,
			Packet:  guard.Perm(aclLo>>6) & guard.PermRW,
			SRAM:    guard.Perm(aclHi) & guard.PermRW,
			PortAbs: guard.Perm(aclHi>>2) & guard.PermRW,
		}
		words := 1 + int(rawWords)%256

		// Re-grant the tenant on both switches; the registration
		// sequence is identical, so both carve the same partition.
		swA.RevokeTenant(tid)
		swB.RevokeTenant(tid)
		g, err := swA.GrantTenant(tid, acl, words, 0, 0)
		if err != nil {
			t.Fatalf("grant on A: %v", err)
		}
		if gB, err := swB.GrantTenant(tid, acl, words, 0, 0); err != nil || gB != g {
			t.Fatalf("grant on B diverged: %+v vs %+v (%v)", gB, g, err)
		}

		// Seed the two banks: identical (zero, from GrantTenant) inside
		// the partition, different patterns everywhere else.
		base := mem.SRAMIndex(g.Partition.Base)
		inPart := func(i int) bool { return i >= base && i < base+g.Partition.Words }
		for i := 0; i < mem.SRAMWords; i++ {
			if !inPart(i) {
				swA.SetSRAM(i, 0xA0000000|uint32(i))
				swB.SetSRAM(i, 0xB0000000|uint32(i))
			}
		}

		verdict := verify.Verify(&tpp, verify.Config{Ports: ports, Grant: &g})
		deniedBefore := swA.TPPsDenied()

		tppA, tppB := tpp.Clone(), tpp.Clone()
		resA := tcpu.Config{}.Exec(tppA, swA.GuardedViewForTesting(nil, 0, tid))
		resB := tcpu.Config{}.Exec(tppB, swB.GuardedViewForTesting(nil, 0, tid))

		// 1. Containment: nothing outside the partition moved, and the
		// partition itself evolved identically on both switches.
		for i := 0; i < mem.SRAMWords; i++ {
			switch {
			case !inPart(i) && swA.SRAM(i) != 0xA0000000|uint32(i):
				t.Fatalf("escaped the partition: SRAM[%d] = %#x\nprogram: %+v", i, swA.SRAM(i), tpp)
			case !inPart(i) && swB.SRAM(i) != 0xB0000000|uint32(i):
				t.Fatalf("escaped the partition on shadow: SRAM[%d] = %#x", i, swB.SRAM(i))
			case inPart(i) && swA.SRAM(i) != swB.SRAM(i):
				t.Fatalf("partition diverged at word %d: %#x vs %#x", i-base, swA.SRAM(i), swB.SRAM(i))
			}
		}

		// 2. Observation: the echo may not depend on out-of-grant state.
		if resA.Executed != resB.Executed || resA.Halted != resB.Halted ||
			(resA.Fault == nil) != (resB.Fault == nil) {
			t.Fatalf("execution diverged across shadow banks: %+v vs %+v", resA, resB)
		}
		if tppA.Ptr != tppB.Ptr || tppA.Flags != tppB.Flags {
			t.Fatalf("echo header diverged: ptr %d/%d flags %#x/%#x",
				tppA.Ptr, tppB.Ptr, tppA.Flags, tppB.Flags)
		}
		for i := 0; i < tppA.MemWords(); i++ {
			if tppA.Word(i) != tppB.Word(i) {
				t.Fatalf("observed out-of-grant state: echo word %d = %#x vs %#x\nprogram: %+v",
					i, tppA.Word(i), tppB.Word(i), tpp)
			}
		}

		// 3. Soundness: a program the verifier accepted against this
		// grant never trips the dynamic guard.
		if verdict.OK() {
			if d := swA.TPPsDenied() - deniedBefore; d != 0 {
				t.Fatalf("verified program denied %d times at runtime\ngrant: %v\nprogram: %+v", d, g.String(), tpp)
			}
			if resA.Fault != nil {
				t.Fatalf("verified program faulted: %v\nprogram: %+v", resA.Fault, tpp)
			}
		}
	})
}
