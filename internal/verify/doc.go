// Package verify statically verifies tiny packet programs before they
// enter the network, in the spirit of the eBPF verifier: a single-pass
// abstract interpretation over a parsed core.TPP that proves the
// program is memory-safe and cheap enough to run at line rate, or
// reports exactly why not, instruction by instruction.  It knows no
// opcode by name: each instruction is judged against its row of the
// opcode table (core.Opcode.Info), which internal/tcpu's tests hold to
// what the TCPU does.
//
// The paper's feasibility argument (§3.3) and its security story (§3.5
// "TPP whitelisting") both assume switches only see programs that are
// provably well-behaved; the dynamic checks in internal/tcpu fire
// mid-pipeline, after the packet is already in flight, where the only
// remedy is flagging the packet.  Verification moves those checks to
// injection time, where a bad program can still be rejected.
//
// Four property families are checked:
//
//   - Wire-format sanity: version, addressing mode, 4-byte alignment
//     of the stack pointer, per-hop record size and packet memory, and
//     operand encodability.
//   - Memory safety: every LOAD/STORE/PUSH/POP/CSTORE/CEXEC operand is
//     resolved against internal/mem's unified address map.  Loads must
//     hit mapped registers, stores must hit writable ones (statistics
//     and protected ranges are read-only), and every packet-memory
//     access — absolute in stack mode, hop-relative in hop mode — must
//     land inside the program's packet memory at the hop being
//     verified.
//   - Resource bounds: the per-instruction retire cycle under
//     internal/tcpu's Figure 5 pipeline model must stay within the
//     configured cycle budget (tcpu.BudgetCycles by default, or a
//     budget derived from tcpu.CheckLineRate), and the program must
//     fit the device instruction limit.
//   - Semantic lints (warnings, not rejections): CEXEC/CSTORE guards
//     that read packet memory no prior instruction initialized, and
//     instructions made unreachable by a CEXEC that can never pass.
//
// The contract, fuzz-tested in FuzzVerify: a program that verifies
// with no error-severity diagnostics never trips a dynamic fault in
// the TCPU on its first hop.
package verify
