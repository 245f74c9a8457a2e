package tcpu

import "errors"

// Execution fault sentinels.  A switch executes attacker-controlled
// programs at line rate, so the fault path is a hot path too: every
// fault is one of these preallocated values, returned as is, so a
// faulting packet costs zero allocations.
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
