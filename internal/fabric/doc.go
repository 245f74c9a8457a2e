// Package fabric is the control plane the paper's "task management"
// story calls for at scale: a controller that drives many switches from
// one declarative spec instead of test code poking TCAM entries, tenant
// grants and SRAM partitions by hand.
//
// The lifecycle is diff → ChangeSet → apply → verify:
//
//   - A Spec declares, per device, the tenants (guard grants), services
//     (named SRAM allocations with optional seed words), controller
//     routes (exact-destination TCAM rules inside the controller's
//     priority band) and L3 prefixes that should exist.
//   - Diff reads each device's live state back through the same
//     machinery a collect TPP resolves through (Switch.ReadWord for the
//     epoch word, tcam.Entries, l3.Routes, the guard table and the SRAM
//     allocator) — never from a cached copy — and emits an ordered
//     ChangeSet of per-device mutations.  An empty ChangeSet is the
//     converged fixpoint.
//   - Apply executes each device's ops all-or-nothing.  The device is
//     read back first: that read is the snapshot a rollback restores,
//     and a device whose [Switch:Epoch] moved since the diff is not
//     touched (a typed ErrEpochRaced instead of writes landing on a
//     wiped switch).  A failed write rolls the device back.  After the
//     writes the device is read back again and re-diffed against the
//     spec the diff started from: anything short of spec other than an
//     informational detour is ErrVerifyFailed and a rollback, so drift
//     outside the ops written fails too.  Seed words, which the diff
//     ignores, are read back on their own.
//   - Verify is the diff read as a verdict: a device whose live state
//     differs from spec is ErrVerifyFailed, and a service the spec
//     names on two or more devices must sit at the same live base on
//     each — congruence, so one compiled TPP addresses it network-wide.
//     A device that seats it elsewhere is ErrIncongruent, which no retry
//     can fix.
//   - Converge loops diff/apply with a bounded attempt budget and
//     exponential backoff (the endhost.Prober deadline discipline), so
//     an apply that races a faults.SwitchReboot rolls forward: the next
//     round re-diffs against the post-boot state and re-applies what
//     the wipe lost.  An exhausted budget degrades gracefully — the
//     unconverged devices are reported as typed per-device errors,
//     never silently dropped.
//
// Ownership is carved so the controller composes with everything else
// that writes switch state: controller routes live in their own TCAM
// priority band (fault-injected blackholes sit above it, legacy
// test-installed routes below), services are allocator tasks under the
// "fabric/" name prefix, and the tenant table and L3 table are claimed
// only by specs that list at least one tenant or prefix for the device.
//
// The fabric/scenario subpackage layers a scenario runner (provision →
// faults → workloads → run → asserts → churn phases, built as Go values
// or decoded from a file) on top, and cmd/fabricctl is the operator
// CLI: dry-run by default, -execute to apply.
package fabric
