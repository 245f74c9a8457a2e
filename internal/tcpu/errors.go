package tcpu

import (
	"errors"
	"fmt"
)

// Execution fault sentinels.  A switch executes attacker-controlled
// programs at line rate, so the fault path is a hot path too: with
// span recording off the TCPU returns these preallocated values
// directly and a faulting packet costs zero allocations.  With
// Config.RecordSpans on, faults are wrapped with formatted detail;
// errors.Is matches the sentinel either way.
var (
	// ErrProgramTooLong: the program exceeds the device instruction
	// limit (Config.MaxInstructions).
	ErrProgramTooLong = errors.New("tcpu: program length exceeds device limit")
	// ErrModeMismatch: PUSH or POP outside stack addressing mode.
	ErrModeMismatch = errors.New("tcpu: PUSH/POP requires stack addressing mode")
	// ErrStackOverflow: PUSH with no packet memory left.
	ErrStackOverflow = errors.New("tcpu: packet memory exhausted")
	// ErrStackUnderflow: POP on an empty stack.
	ErrStackUnderflow = errors.New("tcpu: POP on empty stack")
	// ErrStackOOB: POP with a wire-supplied stack pointer past packet
	// memory.
	ErrStackOOB = errors.New("tcpu: stack pointer past packet memory")
	// ErrPacketMemOOB: a packet-memory operand resolves outside the
	// program's packet memory.
	ErrPacketMemOOB = errors.New("tcpu: packet memory word out of range")
	// ErrUnknownOpcode: the opcode is outside the instruction set.
	ErrUnknownOpcode = errors.New("tcpu: unknown opcode")
)

// detail reports whether faults should carry formatted context: only
// when per-instruction spans are on, so the span-off fault path never
// formats or allocates.
func (c Config) detail() bool { return c.RecordSpans }

func (c Config) faultTooLong(n int) error {
	if !c.detail() {
		return ErrProgramTooLong
	}
	return fmt.Errorf("%w: %d instructions, limit %d", ErrProgramTooLong, n, c.maxIns())
}

func (c Config) faultMode(op fmt.Stringer) error {
	if !c.detail() {
		return ErrModeMismatch
	}
	return fmt.Errorf("%w: %v outside stack mode", ErrModeMismatch, op)
}

func (c Config) faultStackOverflow(sp uint16, memBytes int) error {
	if !c.detail() {
		return ErrStackOverflow
	}
	return fmt.Errorf("%w: SP=%d, mem=%d bytes", ErrStackOverflow, sp, memBytes)
}

func (c Config) faultStackUnderflow(sp uint16) error {
	if !c.detail() {
		return ErrStackUnderflow
	}
	return fmt.Errorf("%w: SP=%d", ErrStackUnderflow, sp)
}

func (c Config) faultStackOOB(sp uint16, memBytes int) error {
	if !c.detail() {
		return ErrStackOOB
	}
	return fmt.Errorf("%w: SP=%d, mem=%d bytes", ErrStackOOB, sp, memBytes)
}

func (c Config) faultPacketMem(i, words int) error {
	if !c.detail() {
		return ErrPacketMemOOB
	}
	return fmt.Errorf("%w: word %d of %d", ErrPacketMemOOB, i, words)
}

func (c Config) faultOpcode(op fmt.Stringer) error {
	if !c.detail() {
		return ErrUnknownOpcode
	}
	return fmt.Errorf("%w: %v", ErrUnknownOpcode, op)
}
