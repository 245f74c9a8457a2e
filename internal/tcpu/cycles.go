package tcpu

// Pipeline timing model of Figure 5: "a five stage pipeline: (a)
// instruction fetch, (b) instruction decode, (c) execute, (d) memory
// read and (e) memory write.  The header parser completes stage (a) by
// the time the packet reaches the TCPU ... this RISC processor runs at
// a throughput of 1 instruction per clock cycle, with a latency of 4
// cycles."
const (
	// PipelineLatency is the cycles from decode to write-back for one
	// instruction (the fetch stage is absorbed by the header parser).
	PipelineLatency = 4
	// BudgetCycles is the per-packet execution budget derived from
	// §3.3: "Low-latency ASICs today can switch minimum sized packets
	// with a cut-through latency of 300ns, which is 300 clock cycles
	// for a 1GHz ASIC."
	BudgetCycles = 300
)

// cyclesFor computes the pipeline occupancy of an execution: the first
// instruction retires after PipelineLatency cycles and each subsequent
// instruction retires one cycle later (1 instruction/cycle throughput).
// CSTORE occupies both the memory-read and memory-write stages in
// separate cycles, a structural hazard costing one extra stall cycle.
func cyclesFor(r *Result) int {
	if r.Executed == 0 {
		return 0
	}
	cycles := PipelineLatency + r.Executed - 1
	// Each CSTORE both reads and writes switch memory; the extra
	// memory stage occupancy is visible as Loads+Stores exceeding
	// Executed for that instruction.  We approximate the stall count
	// as the number of successful conditional stores, which is the
	// only opcode that uses MR and MW in one instruction.
	cycles += r.cstoreStalls
	return cycles
}

// WithinBudget reports whether an execution fits the §3.3 cut-through
// cycle budget.
func (r Result) WithinBudget() bool { return r.Cycles <= BudgetCycles }

// LineRateCheck quantifies the §1/§3.3 feasibility argument: "A 64-port
// 10GbE switch has to process about a billion 64-byte-packets/second to
// operate at line-rate", and a TCPU retires one instruction per cycle.
type LineRateCheck struct {
	// PacketsPerSecond is the worst-case aggregate packet rate.
	PacketsPerSecond float64
	// InstructionsPerSecond is the demanded TCPU instruction rate if
	// every packet carries a k-instruction TPP.
	InstructionsPerSecond float64
	// CyclesPerSecond is one TCPU's capacity at the given clock.
	CyclesPerSecond float64
	// TCPUsNeeded is the number of parallel TCPU pipelines required
	// (ASICs already replicate their pipelines per port group).
	TCPUsNeeded int
	// PerPacketBudgetCycles is the cycle budget between minimum-size
	// packet arrivals on one pipeline.
	PerPacketBudgetCycles float64
}

// CheckLineRate computes the feasibility numbers for a switch with the
// given port count and per-port rate, minimum packet size (plus 20
// bytes of preamble/IFG/CRC framing overhead, as on real Ethernet),
// TPP length and TCPU clock.
func CheckLineRate(ports int, gbpsPerPort float64, minPktBytes, insPerPkt int, ghz float64) LineRateCheck {
	wire := float64(minPktBytes + 20)
	pps := float64(ports) * gbpsPerPort * 1e9 / 8 / wire
	var c LineRateCheck
	c.PacketsPerSecond = pps
	c.InstructionsPerSecond = pps * float64(insPerPkt)
	c.CyclesPerSecond = ghz * 1e9
	need := c.InstructionsPerSecond / c.CyclesPerSecond
	c.TCPUsNeeded = int(need)
	if need > float64(c.TCPUsNeeded) {
		c.TCPUsNeeded++
	}
	if c.TCPUsNeeded < 1 {
		c.TCPUsNeeded = 1
	}
	perPipe := pps / float64(c.TCPUsNeeded)
	c.PerPacketBudgetCycles = c.CyclesPerSecond / perPipe
	return c
}
