// Command tppasm assembles, disassembles and dry-runs tiny packet
// programs.
//
// Usage:
//
//	tppasm asm [-verify] [file]   assemble TPP assembly (stdin default)
//	                              to hex; -verify statically checks the
//	                              program first and refuses to emit one
//	                              that carries error diagnostics
//	tppasm disasm [file]          disassemble hex wire format back to
//	                              assembly; '#' lines, such as asm's
//	                              own comments, are skipped
//	tppasm run [file]             assemble, then execute against a
//	                              standalone switch model, printing the
//	                              packet memory
//	tppasm symbols                print the [Namespace:Statistic] symbol
//	                              table
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/asic"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/tcpu"
	"repro/internal/topo"
	"repro/internal/verify"
)

func main() {
	if len(os.Args) < 2 {
		fail("usage: tppasm asm|disasm|run|symbols [file]")
	}
	if err := dispatch(os.Args[1], os.Args[2:], os.Stdout); err != nil {
		fail("tppasm: " + err.Error())
	}
}

// dispatch routes one subcommand; split out of main for testability.
func dispatch(cmd string, args []string, w io.Writer) error {
	switch cmd {
	case "asm":
		return cmdAsm(args, w)
	case "disasm":
		return cmdDisasm(args, w)
	case "run":
		return cmdRun(args, w)
	case "symbols":
		return cmdSymbols(w)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

func readInput(args []string) (string, error) {
	if len(args) == 0 || args[0] == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(args[0])
	return string(b), err
}

// inputName returns the display name for diagnostics.
func inputName(args []string) string {
	if len(args) == 0 || args[0] == "-" {
		return "<stdin>"
	}
	return args[0]
}

func cmdAsm(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("asm", flag.ContinueOnError)
	doVerify := fs.Bool("verify", false, "statically verify the program; refuse to emit on errors")
	maxIns := fs.Int("max-instructions", 0, "device instruction limit for -verify (0: paper default)")
	ports := fs.Int("ports", 0, "device port count for -verify (0: don't check per-port bounds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	src, err := readInput(args)
	if err != nil {
		return err
	}
	p, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	if *doVerify {
		res := verify.Verify(p.TPP, verify.Config{MaxInstructions: *maxIns, Ports: *ports})
		for _, d := range res.Diags {
			printDiag(w, inputName(args), p, d)
		}
		if errs := res.Errors(); len(errs) != 0 {
			return fmt.Errorf("verification failed: %d error(s)", len(errs))
		}
	}
	wire := p.TPP.AppendTo(nil)
	fmt.Fprintf(w, "# %d instructions, %d words of packet memory (%d pooled), %d bytes on the wire\n",
		len(p.TPP.Ins), p.TPP.MemWords(), p.PoolWords, len(wire))
	for i, in := range p.TPP.Ins {
		fmt.Fprintf(w, "# ins %d: %08x  %s\n", i, in.Word(), in)
	}
	fmt.Fprintln(w, hex.EncodeToString(wire))
	return nil
}

// printDiag formats one verifier diagnostic with source-line
// attribution: "# file:line: error: [code] msg" when the instruction
// maps back to a source line, the verifier's own "pc N" form otherwise.
// The "# " makes it a comment line, which disasm skips, so the output
// of asm -verify still pipes into disasm.
func printDiag(w io.Writer, name string, p *asm.Program, d verify.Diagnostic) {
	if line := p.Line(d.PC); line > 0 {
		fmt.Fprintf(w, "# %s:%d: %s: [%s] %s\n", name, line, d.Severity, d.Code, d.Msg)
		return
	}
	fmt.Fprintf(w, "# %s: %s\n", name, d)
}

func cmdDisasm(args []string, w io.Writer) error {
	in, err := readInput(args)
	if err != nil {
		return err
	}
	// The hex may come straight from asm, whose '#' lines describe it.
	var digits strings.Builder
	for _, line := range strings.Split(in, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			digits.WriteString(line)
		}
	}
	wire, err := hex.DecodeString(digits.String())
	if err != nil {
		return fmt.Errorf("decoding hex: %w", err)
	}
	var tpp core.TPP
	if _, err := core.ParseTPP(wire, &tpp); err != nil {
		return err
	}
	fmt.Fprint(w, asm.Disassemble(&tpp))
	return nil
}

// cmdRun assembles a program and executes it on one switch of a small
// line network, so authors can see exactly what each hop writes.
func cmdRun(args []string, w io.Writer) error {
	src, err := readInput(args)
	if err != nil {
		return err
	}
	p, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 1, Ports: 2, TCPU: tcpu.Config{MaxInstructions: 16}})
	h := n.AddHost()
	n.LinkHost(h, sw, topo.Mbps(100, 0))
	sim.RunUntil(netsim.Millisecond)

	for hop := 1; hop <= 3; hop++ {
		view := sw.ViewForTesting(nil, 0)
		res := (tcpu.Config{MaxInstructions: 16}).Exec(p.TPP, view)
		fmt.Fprintf(w, "hop %d: executed=%d cycles=%d halted=%v", hop, res.Executed, res.Cycles, res.Halted)
		if res.Fault != nil {
			fmt.Fprintf(w, " fault=%v", res.Fault)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "ptr=%d flags=%#x\n", p.TPP.Ptr, p.TPP.Flags)
	for i := 0; i < p.TPP.MemWords(); i++ {
		fmt.Fprintf(w, "mem[%2d] = 0x%08x (%d)\n", i, p.TPP.Word(i), p.TPP.Word(i))
	}
	return nil
}

func cmdSymbols(w io.Writer) error {
	for _, s := range mem.Symbols() {
		rw := "ro"
		if s.Writable {
			rw = "rw"
		}
		fmt.Fprintf(w, "%-38s %#06x  %s\n", s.Name, s.Addr.ByteAddr(), rw)
	}
	return nil
}
