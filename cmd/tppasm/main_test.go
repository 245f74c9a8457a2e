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
	// Programs run through switches in tppsim, not here.
	if err := dispatch("run", []string{writeTemp(t, sampleProg)}, &b); err == nil ||
		!strings.Contains(err.Error(), "unknown command") {
		t.Errorf("run: err = %v, want an unknown command", err)
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
	// A negative device limit is refused by name, not read as the
	// default.
	for _, flag := range []string{"-max-instructions", "-ports"} {
		b.Reset()
		err := dispatch("asm", []string{"-verify", flag, "-3", writeTemp(t, sampleProg)}, &b)
		if err == nil || !strings.Contains(err.Error(), flag+" -3 is negative") {
			t.Errorf("%s -3: err = %v, want it refused by name", flag, err)
		}
	}
}

// TestRCPStarExampleMatchesREADME assembles the README's RCP* update
// as its `tppasm asm rcpstar.tpp` line does: the transcript the README
// shows is what asm prints, byte for byte.
func TestRCPStarExampleMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	between := func(from, to string) string {
		_, rest, ok := strings.Cut(string(readme), from)
		if !ok {
			t.Fatalf("README has no %q", from)
		}
		body, _, _ := strings.Cut(rest, to)
		return body
	}
	src := between("$ cat > rcpstar.tpp <<'EOF'\n", "EOF\n")
	shown := between("$ go run ./cmd/tppasm asm rcpstar.tpp\n", "```")

	var b strings.Builder
	if err := dispatch("asm", []string{writeTemp(t, src)}, &b); err != nil {
		t.Fatal(err)
	}
	if b.String() != shown {
		t.Errorf("tppasm asm prints:\n%s\nREADME shows:\n%s", b.String(), shown)
	}
}
