// Package mem defines the unified memory-mapped IO address space of
// §3.2.1 of the TPP paper: "The statistics can be broadly namespaced
// into per-switch (i.e. global), per-port, per-queue and per-packet...
// These statistics reside in different memory banks, but providing a
// unified address space makes them available to TPPs."
//
// Addresses are 12-bit word indexes (matching the instruction operand
// width in internal/core), covering a 16 KiB byte space per switch:
//
//	0x000–0x0FF  Switch namespace (global statistics)
//	0x100–0x1FF  Port/Link namespace, context-relative: resolves
//	             against the packet's egress port chosen earlier in
//	             the pipeline
//	0x200–0x2FF  Queue namespace, context-relative egress queue
//	0x300–0x3FF  PacketMetadata namespace (per-packet registers)
//	0x400–0xBFF  Scratch SRAM (2048 words), carved into owner-tagged
//	             regions — operator task regions and guard tenant
//	             partitions — by the one control-plane Allocator
//	0xC00–0xFFF  Absolute per-port window: port p's statistics block
//	             at PortAbsBase + p*PortAbsStride
//
// "These address mappings must be known upfront so that the TPP
// compiler can convert mnemonics (such as PacketMetadata:InputPort)
// into addresses": the map is described once, as two tables.  banks
// has one row per namespace — paper name, base address, mapped word
// count and writable word range — and Namespace.String, Readable,
// Writable and StoreFault read it; NamespaceOf reads the page table
// derived from its bases.  spellings lists every mnemonic,
// each word's canonical name before its aliases, and LookupSymbol,
// NameOf and Symbols read it; the assembler and the disassembler share
// it.
//
// The package also defines the access-control model of §4: the memory
// map "isolates critical forwarding state from state modifiable by
// TPPs".  Statistics namespaces are read-only to TPPs except for
// designated task scratch words; SRAM is read-write within a task's
// allocated region.  StoreFault is the one store decision: the ASIC's
// per-packet view and the static verifier both call it.
//
// Allocator is the single authority over the scratch bank.  Every live
// region carries an Owner (a task name or a tenant id) and one
// first-fit search places both classes, so no two regions overlap
// whoever asked for them.  Task regions are soft state released by
// Reset on a crash-restart; tenant partitions are config and survive
// it.
package mem
