package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodDoc = `
topology:
  leaves: 2
  spines: 2
  hosts: 2
  guard: true
  tpprate: 1000
spec:
  devices:
    - device: leaf0
      tenants:
        - id: 1
          policy: control
          words: 64
          weight: 10
          burst: 16
      services:
        - name: rcp
          words: 8
          seed: [1250000]
      routes:
        - dst: 10.0.0.1
          prio: 100
          port: 2
        - dst: 10.0.9.9
          prio: 50
          drop: true
      prefixes:
        - prefix: 10.0.0.0/24
          port: 1
    - device: spine1
      routes:
        - dst: 10.0.0.1
          prio: 10
          port: 0
`

func writeDoc(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.yaml")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCtl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestDryRunIsDefault(t *testing.T) {
	path := writeDoc(t, goodDoc)
	code, out, errOut := runCtl(t, path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{
		"device leaf0 (base epoch 0)",
		"+ tenant 1 policy=control words=64 weight=10 burst=16",
		"+ service rcp words=8 seed=1",
		"+ route dst=10.0.0.1 prio=100 -> port 2",
		"+ route dst=10.0.9.9 prio=50 -> drop",
		"+ prefix 10.0.0.0/24 -> port 1",
		"device spine1 (base epoch 0)",
		"dry run: 6 ops across 2 devices not applied (use -execute)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dry-run output missing %q:\n%s", want, out)
		}
	}
}

func TestDryRunDeterministic(t *testing.T) {
	path := writeDoc(t, goodDoc)
	_, first, _ := runCtl(t, path)
	_, second, _ := runCtl(t, path)
	if first != second {
		t.Fatalf("dry runs differ:\n%s\nvs\n%s", first, second)
	}
}

func TestExecuteConverges(t *testing.T) {
	path := writeDoc(t, goodDoc)
	code, out, errOut := runCtl(t, "-execute", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "converged: 6 ops applied in 1 attempt(s); live state verified field-for-field") {
		t.Errorf("missing converge report:\n%s", out)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		doc  string
		args []string
		want int
		msg  string // substring of stderr
	}{
		{name: "no args", args: []string{}, want: 2, msg: "usage"},
		{name: "unknown flag", doc: goodDoc, args: []string{"-bogus"}, want: 2},
		{name: "missing file", args: []string{"/nonexistent/spec.yaml"}, want: 2},
		{name: "bad yaml", doc: "spec:\n\tdevices:", want: 2, msg: "tabs"},
		{name: "unknown top key", doc: "stuff:\n  x: 1", want: 2, msg: "unknown key"},
		{name: "bad topology", doc: "topology:\n  leaves: 0", want: 2, msg: "at least one leaf"},
		{name: "NaN tpprate", doc: "topology:\n  tpprate: NaN", want: 2, msg: "tpprate: NaN is not a finite"},
		{name: "infinite tpprate", doc: "topology:\n  tpprate: +Inf", want: 2, msg: "tpprate: +Inf is not a finite"},
		{name: "negative tpprate", doc: "topology:\n  tpprate: -5", want: 2, msg: "tpprate: -5 is not a finite"},
		{name: "negative tppburst", doc: "topology:\n  tpprate: 1000\n  tppburst: -3", want: 2, msg: "tppburst: -3 is negative"},
		{name: "zero budget", doc: goodDoc, args: []string{"-execute", "-budget", "0"}, want: 2, msg: "-budget 0: need at least one attempt"},
		{name: "negative budget", doc: goodDoc, args: []string{"-execute", "-budget", "-3"}, want: 2, msg: "-budget -3: need at least one attempt"},
		{name: "zero backoff", doc: goodDoc, args: []string{"-execute", "-backoff", "0s"}, want: 2, msg: "-backoff 0s: must be positive"},
		{name: "bad spec", doc: "spec:\n  devices:\n    - device: leaf0\n      routes:\n        - dst: 10.0.0.1\n          prio: 1", want: 2, msg: "needs port or drop"},
		{
			name: "unknown device",
			doc:  "spec:\n  devices:\n    - device: leaf9\n      routes:\n        - dst: 10.0.0.1\n          prio: 1\n          port: 0",
			want: 1, msg: "unknown-device",
		},
		{
			name: "tenants without guard",
			doc:  "spec:\n  devices:\n    - device: leaf0\n      tenants:\n        - id: 1\n          words: 64",
			want: 1, msg: "spec-invalid",
		},
		{
			name: "route to a port the leaf lacks",
			doc:  "topology:\n  hosts: 1\nspec:\n  devices:\n    - device: leaf0\n      routes:\n        - dst: 10.0.0.1\n          prio: 1\n          port: 7",
			args: []string{"-execute"},
			want: 1, msg: "spec-invalid: route 10.0.0.1 -> port 7, but the device has ports 0..2",
		},
		{
			name: "route to a negative port",
			doc:  "spec:\n  devices:\n    - device: spine0\n      routes:\n        - dst: 10.0.0.1\n          prio: 1\n          port: -3",
			args: []string{"-execute"},
			want: 1, msg: "spec-invalid: route 10.0.0.1 -> port -3, but the device has ports 0..1",
		},
		{
			// Switches are sized per tier: on the default 2x2x2 a leaf has
			// ports 0..3, a spine only its two downlinks.
			name: "route to a port only leaves have",
			doc:  "spec:\n  devices:\n    - device: leaf0\n      routes:\n        - dst: 10.0.0.1\n          prio: 1\n          port: 3\n    - device: spine0\n      routes:\n        - dst: 10.0.0.1\n          prio: 1\n          port: 3",
			args: []string{"-execute"},
			want: 1, msg: "device spine0: spec-invalid: route 10.0.0.1 -> port 3, but the device has ports 0..1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.doc != "" {
				args = append(args, writeDoc(t, tc.doc))
			}
			code, _, errOut := runCtl(t, args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.want, errOut)
			}
			if tc.msg != "" && !strings.Contains(errOut, tc.msg) {
				t.Errorf("stderr missing %q:\n%s", tc.msg, errOut)
			}
		})
	}
}

// TestExecutePartialConvergence: two services that are individually
// feasible but cannot coexist in the SRAM bank exhaust the budget; the
// exit code and the typed pending error report the partial convergence.
func TestExecutePartialConvergence(t *testing.T) {
	doc := `
spec:
  devices:
    - device: leaf0
      services:
        - name: aaa
          words: 2000
        - name: zzz
          words: 2000
    - device: spine0
      routes:
        - dst: 10.0.0.1
          prio: 10
          port: 0
`
	path := writeDoc(t, doc)
	code, out, errOut := runCtl(t, "-execute", "-budget", "2", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(errOut, "partial convergence after 2 attempts") ||
		!strings.Contains(errOut, "write-failed") {
		t.Errorf("stderr missing partial-convergence report:\n%s", errOut)
	}
	// The feasible device still converged: ops were applied each round.
	if !strings.Contains(out, "round at t=") {
		t.Errorf("no round reporting:\n%s", out)
	}
}

// TestExampleSpecMatchesREADME loads the spec file the README's
// quick-start prints: the file is the README's yaml block verbatim, a
// dry run of it prints the README's console block verbatim, and
// -execute converges it.
func TestExampleSpecMatchesREADME(t *testing.T) {
	const example = "examples/fabric/fabric.yaml"
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
	path := filepath.Join("..", "..", example)
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := between("```yaml\n", "```"); string(doc) != want {
		t.Errorf("%s differs from the README's yaml block:\n%s\nvs\n%s", example, doc, want)
	}

	code, out, errOut := runCtl(t, path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	dryRun := between("$ go run ./cmd/fabricctl "+example, "$ ")
	_, dryRun, _ = strings.Cut(dryRun, "\n") // the rest of the command line
	if out != dryRun {
		t.Errorf("dry run prints:\n%s\nREADME shows:\n%s", out, dryRun)
	}

	if code, out, errOut := runCtl(t, "-execute", path); code != 0 ||
		!strings.Contains(out, "converged: 4 ops applied in 1 attempt(s)") {
		t.Errorf("-execute: exit %d\n%s%s", code, out, errOut)
	}
}
