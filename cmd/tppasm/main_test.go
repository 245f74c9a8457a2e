package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "prog.tpp")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const sampleProg = `
.mem 6
PUSH [Switch:SwitchID]
PUSH [Queue:QueueSize]
`

func TestCmdAsm(t *testing.T) {
	var b strings.Builder
	if err := dispatch("asm", []string{writeTemp(t, sampleProg)}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"2 instructions", "6 words", "PUSH"} {
		if !strings.Contains(out, want) {
			t.Errorf("asm output missing %q:\n%s", want, out)
		}
	}
	// The last line is the hex wire image.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	hexLine := lines[len(lines)-1]
	if len(hexLine) != 2*(12+8+24) { // header + 2 ins + 6 words
		t.Fatalf("hex length %d", len(hexLine))
	}
}

func TestAsmThenDisasmRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"plain", []string{writeTemp(t, sampleProg)},
			[]string{".mode stack", ".mem 6", "PUSH [Switch:SwitchID]", "PUSH [Queue:QueueSize]"}},
		// Verifies with a warning (a zero-size hop record), which asm
		// prints ahead of the hex.
		{"verify-warning", []string{"-verify", writeTemp(t,
			".mode hop\n.hopsize 0\n.mem 1\nLOAD [Switch:SwitchID], [Packet:Hop[0]]\n")},
			[]string{".mode hop", "LOAD [Switch:SwitchID], [Packet:Hop[0]]"}},
	} {
		var hexOut strings.Builder
		if err := dispatch("asm", tc.args, &hexOut); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.name == "verify-warning" && !strings.Contains(hexOut.String(), ": warning: [") {
			t.Fatalf("%s: no warning in the asm output:\n%s", tc.name, hexOut.String())
		}
		// The whole asm output, comment lines included: disasm reads
		// what asm writes, so `tppasm asm [-verify] p.tpp | tppasm
		// disasm` works.
		hexFile := writeTemp(t, hexOut.String())

		var dis strings.Builder
		if err := dispatch("disasm", []string{hexFile}, &dis); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(dis.String(), want) {
				t.Errorf("%s: disasm missing %q:\n%s", tc.name, want, dis.String())
			}
		}
	}
}

func TestCmdRun(t *testing.T) {
	var b strings.Builder
	if err := dispatch("run", []string{writeTemp(t, sampleProg)}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "hop 1: executed=2") {
		t.Fatalf("run output:\n%s", out)
	}
	if !strings.Contains(out, "ptr=24") { // 3 hops x 2 words x 4 bytes
		t.Fatalf("run output missing final pointer:\n%s", out)
	}
	// Switch id 1 appears in the recorded memory.
	if !strings.Contains(out, "mem[ 0] = 0x00000001 (1)") {
		t.Fatalf("recorded memory wrong:\n%s", out)
	}
}

func TestCmdSymbols(t *testing.T) {
	var b strings.Builder
	if err := dispatch("symbols", nil, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Switch:SwitchID", "Link:RCP-RateRegister", "rw", "ro"} {
		if !strings.Contains(out, want) {
			t.Errorf("symbols output missing %q", want)
		}
	}
}

func TestDispatchErrors(t *testing.T) {
	var b strings.Builder
	if err := dispatch("frobnicate", nil, &b); err == nil {
		t.Error("unknown command accepted")
	}
	if err := dispatch("asm", []string{writeTemp(t, "BOGUS")}, &b); err == nil {
		t.Error("bad program accepted")
	}
	if err := dispatch("asm", []string{"/nonexistent/file"}, &b); err == nil {
		t.Error("missing file accepted")
	}
	if err := dispatch("disasm", []string{writeTemp(t, "zz-not-hex")}, &b); err == nil {
		t.Error("bad hex accepted")
	}
	if err := dispatch("disasm", []string{writeTemp(t, "0102")}, &b); err == nil {
		t.Error("truncated wire image accepted")
	}
	if err := dispatch("run", []string{writeTemp(t, "BOGUS")}, &b); err == nil {
		t.Error("bad run program accepted")
	}
}

func TestCmdAsmVerifyRejects(t *testing.T) {
	// A POP into the read-only switch identification range must fail
	// verification, name the offending source line, and return an
	// error (non-zero exit).
	file := writeTemp(t, `
.mem 2
PUSH [Queue:QueueSize]
POP [Switch:SwitchID]
`)
	var b strings.Builder
	err := dispatch("asm", []string{"-verify", file}, &b)
	if err == nil {
		t.Fatalf("verify accepted a read-only store; output:\n%s", b.String())
	}
	if !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	want := file + ":4: error:"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("diagnostic missing source attribution %q:\n%s", want, b.String())
	}
}

func TestCmdAsmVerifyAccepts(t *testing.T) {
	var b strings.Builder
	if err := dispatch("asm", []string{"-verify", writeTemp(t, sampleProg)}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# ins 0:") {
		t.Fatalf("verified program not assembled:\n%s", b.String())
	}
}

func TestCmdAsmVerifyDeviceLimit(t *testing.T) {
	// -max-instructions tightens the device limit below the program
	// length.
	var b strings.Builder
	err := dispatch("asm", []string{"-verify", "-max-instructions", "1", writeTemp(t, sampleProg)}, &b)
	if err == nil {
		t.Fatalf("2-instruction program passed a 1-instruction device limit:\n%s", b.String())
	}
}
