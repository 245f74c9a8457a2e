// Package asic models the switch dataplane of Figure 3 of the TPP
// paper: packets arrive at an ingress port, pass through the header
// parser and the L2/L3/TCAM lookup pipeline, are processed by the TCPU
// ("we insert the TCPU just after the L2/L3/TCAM tables"), and are
// committed to their egress port's one FIFO queue, which the output
// scheduler drains in arrival order.
//
// Everything a TPP can observe is maintained here: per-port byte
// counters and EWMA utilizations, egress queue occupancies and drops,
// per-packet pipeline metadata, the scratch SRAM bank, and the
// dataplane clock.  The package exposes them to the TCPU through a
// per-packet mem.View whose context-relative namespaces resolve against
// the packet's selected egress port and that port's queue.
//
// The model is deliberately event-accurate rather than cycle-accurate:
// link serialization, propagation, queue occupancy and drops are exact;
// the fixed pipeline latency stands in for the parse/lookup stages — the
// link into a port hands the switch a frame that long after its last
// bit arrived, and Switch.Receive runs the whole hop in that one event —
// and internal/tcpu separately accounts TCPU cycles for the §3.3
// feasibility claims.
package asic
