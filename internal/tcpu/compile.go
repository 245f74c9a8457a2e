package tcpu

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// Program is the cached validation verdict for one TPP program shape
// under one device Config: whether every execution of that shape faults
// before its first instruction, and with what.  It holds nothing per
// instruction — the TCPU executes straight from the packet's own
// instruction section — and is immutable after Compile, so it is safe
// to share across packets, hops and (future) parallel shards.
type Program struct {
	cfg Config
	// n, mode and version pin the static shape the verdict was reached
	// on, so executors can cheaply reject a mismatched TPP.
	n       int
	mode    core.AddrMode
	version uint8
	// preFault is the static fault every execution of this shape hits
	// first (program too long for the device, or a head validation
	// failure).  insFault is the static per-instruction encoding fault;
	// a fresh validation reaches it after the dynamic header checks, so
	// it is kept apart for exec to replay in that order.
	preFault error
	insFault error
}

// Compile decides, once, the static half of validating the program
// carried by t (its instruction section, addressing mode and version —
// the dynamic header fields and packet memory are ignored) under device
// config c.  Compile is total: a program that can never execute gets a
// verdict that faults it exactly as Config.Exec would.
func Compile(c Config, t *core.TPP) *Program {
	p := &Program{
		cfg:     c,
		n:       len(t.Ins),
		mode:    t.Mode,
		version: t.Version,
	}
	// In Config.Exec's exact order: the device length limit first, then
	// the head validation.
	if p.n > c.maxIns() {
		p.preFault = ErrProgramTooLong
	} else if p.preFault = t.ValidateHead(); p.preFault == nil {
		p.insFault = t.ValidateIns()
	}
	return p
}

// Matches reports whether the verdict was reached under a device
// configuration equivalent to c, i.e. whether executing with it on a
// device configured with c is behaviorally identical to Config.Exec.
func (p *Program) Matches(c Config) bool {
	return p.cfg.maxIns() == c.maxIns()
}

// MatchesTPP reports whether t carries the static shape this program
// was compiled from.  It is a cheap guard against executing a stale
// attachment; equality of the instruction words themselves is the
// cache's responsibility.
func (p *Program) MatchesTPP(t *core.TPP) bool {
	return p.n == len(t.Ins) && p.mode == t.Mode && p.version == t.Version
}

// Exec runs t against view, with semantics identical to Config.Exec
// under the configuration p was compiled for.
//
//alloc:free
func (p *Program) Exec(t *core.TPP, view mem.View) Result { return exec(p.cfg, p, t, view) }
