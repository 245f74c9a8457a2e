package fabric

import "fmt"

// ErrKind classifies a per-device failure.
type ErrKind uint8

const (
	// ErrUnknownDevice: the spec names a device the controller has no
	// registration for.  A config bug; retrying cannot fix it.
	ErrUnknownDevice ErrKind = iota
	// ErrSpecInvalid: the spec asks the device for something it cannot
	// hold (tenants on a guard-less switch, a band-relative priority
	// out of range, a route to a port it does not have).  Not retryable.
	ErrSpecInvalid
	// ErrDeviceDark: read-back answered nothing — the switch is inside
	// a reboot's boot-delay window.  Retryable: the boot finishes.
	ErrDeviceDark
	// ErrEpochRaced: the device's [Switch:Epoch] moved between diff and
	// apply — a crash-restart wiped the state the diff was computed
	// against, so no write landed.  Retryable: the next round re-diffs
	// against the post-boot state.
	ErrEpochRaced
	// ErrWriteFailed: an op failed mid-apply; the device was rolled
	// back to its pre-apply snapshot.
	ErrWriteFailed
	// ErrVerifyFailed: the device reads back short of spec.  From
	// Apply: every op was written, the re-diff still found ops to do,
	// and the device was rolled back.
	ErrVerifyFailed
	// ErrIncongruent: a service the spec names on several devices sits
	// at different live bases, so no one compiled TPP addresses it on
	// all of them.  Not retryable: the layout is settled, and only a
	// changed spec (or freed SRAM) can move it.
	ErrIncongruent
)

var errKindNames = [...]string{
	ErrUnknownDevice: "unknown-device",
	ErrSpecInvalid:   "spec-invalid",
	ErrDeviceDark:    "device-dark",
	ErrEpochRaced:    "epoch-raced",
	ErrWriteFailed:   "write-failed",
	ErrVerifyFailed:  "verify-failed",
	ErrIncongruent:   "incongruent",
}

// String names the kind.
func (k ErrKind) String() string {
	if int(k) < len(errKindNames) {
		return errKindNames[k]
	}
	return "unknown"
}

// Retryable reports whether another converge round can plausibly clear
// the failure.
func (k ErrKind) Retryable() bool {
	switch k {
	case ErrDeviceDark, ErrEpochRaced, ErrWriteFailed, ErrVerifyFailed:
		return true
	}
	return false
}

// DeviceError is one device's typed apply/verify failure.
type DeviceError struct {
	Device string
	Kind   ErrKind
	Detail string
	// RolledBack reports that the device was restored to its pre-apply
	// snapshot (set for write/verify failures whose rollback succeeded).
	RolledBack bool
}

// Error implements error.
func (e *DeviceError) Error() string {
	s := fmt.Sprintf("fabric: device %s: %s", e.Device, e.Kind)
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	if e.RolledBack {
		s += " (rolled back)"
	}
	return s
}
