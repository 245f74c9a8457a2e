package verify_test

import (
	"testing"

	. "repro/internal/verify"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/microburst"
	"repro/internal/ndb"
	"repro/internal/netsim"
	"repro/internal/tcpu"
	"repro/internal/wireless"
)

// FuzzVerify pins the verifier's central soundness claim: any wire
// bytes that parse and verify cleanly must execute on a real switch
// without tripping a single dynamic fault.  The static address model,
// stack tracking and bounds checks are only trustworthy if no input —
// however adversarial — can slip a faulting program past them.
func FuzzVerify(f *testing.F) {
	// Seed with the production programs every experiment injects, so
	// the fuzzer starts from deep, valid corpus entries.
	seeds := []*core.TPP{
		microburst.TelemetryProgram(7),
		microburst.BreakdownProgram(7),
		ndb.TraceProgram(7),
		wireless.SNRProgram(4),
		core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
			{Op: core.OpPOP, A: uint16(mem.SRAMBase + 8)},
		}, 4),
	}
	hop := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		{Op: core.OpLOAD, A: uint16(mem.QueueBase + mem.QueueBytes), B: 1},
	}, 6)
	hop.HopLen = 8
	seeds = append(seeds, hop)
	for _, s := range seeds {
		f.Add(s.AppendTo(nil))
	}
	// And with near-miss garbage so the mutator explores the reject
	// boundary too.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 9, 200, 255, 255, 0, 2, 0, 0, 0, 0})

	const ports = 2
	sim := netsim.New(1)
	sw := asic.New(sim, asic.Config{ID: 1, Ports: ports})
	cfg := Config{Ports: ports}

	f.Fuzz(func(t *testing.T, data []byte) {
		var tpp core.TPP
		if _, err := core.ParseTPP(data, &tpp); err != nil {
			return
		}
		res := Verify(&tpp, cfg)
		if !res.OK() {
			return
		}
		// Accepted: execution must not fault.  The switch keeps its
		// SRAM mutations between iterations; a verified program's
		// safety cannot depend on memory contents, so any reachable
		// state is fair game.
		view := sw.ViewForTesting(nil, 0)
		r := tcpu.Config{}.Exec(&tpp, view)
		if r.Fault != nil {
			t.Fatalf("verified program faulted: %v\nprogram: %+v", r.Fault, tpp)
		}
	})
}
