// Package guard is the multi-tenant isolation subsystem for TPP
// switches: the answer to §4's open problem that "TPPs give end-hosts
// raw read/write access to switch state" (the extended version of the
// paper — "Millions of Little Minions", SIGCOMM 2014 — answers it with
// per-tenant memory protection, TPP rate limiting and edge
// enforcement; this package reproduces that design on the simulated
// substrate).
//
// # Threat model
//
// A tenant is a mutually distrusting principal (a cloud customer, a
// network task owner) whose end-hosts inject TPPs through a trusted
// edge: the endhost.NIC stamps every outgoing TPP with its tenant id
// and seals it — a guest cannot forge another tenant's identity,
// because the NIC (the hypervisor vswitch of the SIGCOMM paper)
// overwrites whatever the guest wrote.  Untrusted switch ports strip
// TPPs entirely, so the only TPPs inside the fabric carry edge-sealed
// tenant ids.  Within that boundary a tenant may still be buggy or
// hostile: it can aim STOREs at any of the 4096 word addresses,
// including SRAM another tenant's control loop depends on, and it can
// flood TPPs far above its fair share of TCPU capacity.
//
// # Mechanisms
//
//   - Per-tenant SRAM partitions: each grant's base+bounds region is
//     carved from the switch's mem.Allocator — the same allocator, and
//     the same first-fit search, that places operator task regions, so
//     a partition overlaps neither another tenant's nor the operator's
//     memory.  Tenant programs address SRAM tenant-relative — their
//     word 0 is SRAMBase — and the guard relocates each access into the
//     tenant's physical partition, so a forged absolute address lands
//     in the forger's own memory or nowhere.  Partitions are zeroed on
//     grant, on tenant teardown and (with the rest of SRAM) on switch
//     crash-restart; the partition itself is config and outlives the
//     restart.  The operator's whole-bank identity grant
//     (OperatorGrant) is an overlay, not a region: it deliberately
//     aliases every tenant's memory.
//
//   - Per-namespace ACLs (ACL): read and write permission bits per
//     memory namespace.  The defaults make queue/link/switch statistics
//     readable by all and the per-port task scratch words writable only
//     by tenants explicitly granted the permission; the operator tenant
//     holds every permission.  The ACL only ever narrows the base
//     protection map (mem.Writable / mem.Readable) — it cannot make a
//     statistics register writable.
//
//   - Fail-forward enforcement (Table, wired into the ASIC's TCPU
//     memory stage): a denied LOAD returns the Poison value and a
//     denied STORE is silently dropped; execution continues and the
//     packet keeps forwarding with core.FlagAccessFault set, a
//     tpps_denied metric and a StageAccessDeny span.  The gate protects
//     state; it never stalls the dataplane.
//
//   - Per-tenant admission quotas (Table.Admit): the switch's aggregate
//     TPP execution budget is split into per-tenant token buckets with
//     weighted-share refill, so one flooding tenant exhausts only its
//     own quota and every other tenant's TPPs keep executing.
//
// internal/verify checks programs against a tenant's Grant statically
// (acl-denied / partition-oob diagnostics), so a program the verifier
// accepts for tenant T never trips a dynamic denial: both sides decide
// through the same Grant methods.
package guard
