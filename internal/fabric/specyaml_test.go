package fabric_test

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fabric/yamlite"
	"repro/internal/netsim"
)

const specSrc = `
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
        seed: [1250000, 0]
    routes:
      - dst: 10.0.0.1
        prio: 100
        port: 1
      - dst: 10.0.9.9
        prio: 50
        drop: true
    prefixes:
      - prefix: 10.0.0.0/24
        port: 3
  - device: spine0
    routes:
      - dst: 10.0.0.1
        prio: 10
        port: 0
`

// parseSpec is the path spec text takes in fabricctl and the scenario
// runner: yamlite.Parse, then fabric.DecodeSpec.
func parseSpec(src string) (fabric.Spec, error) {
	root, err := yamlite.Parse(src)
	if err != nil {
		return fabric.Spec{}, err
	}
	return fabric.DecodeSpec(root)
}

func TestParseSpec(t *testing.T) {
	spec, err := parseSpec(specSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Devices) != 2 {
		t.Fatalf("devices = %d", len(spec.Devices))
	}
	leaf := spec.Devices[0]
	if leaf.Device != "leaf0" || len(leaf.Tenants) != 1 || len(leaf.Services) != 1 ||
		len(leaf.Routes) != 2 || len(leaf.Prefixes) != 1 {
		t.Fatalf("leaf = %+v", leaf)
	}
	tn := leaf.Tenants[0]
	if tn.ID != 1 || tn.Policy != fabric.PolicyControl || tn.Words != 64 || tn.Weight != 10 || tn.Burst != 16 {
		t.Fatalf("tenant = %+v", tn)
	}
	svc := leaf.Services[0]
	if svc.Name != "rcp" || svc.Words != 8 || len(svc.Seed) != 2 || svc.Seed[0] != 1250000 {
		t.Fatalf("service = %+v", svc)
	}
	if leaf.Routes[0].DstIP != core.IPv4Addr(10, 0, 0, 1) || leaf.Routes[0].OutPort != 1 {
		t.Fatalf("route 0 = %+v", leaf.Routes[0])
	}
	if !leaf.Routes[1].Drop {
		t.Fatalf("route 1 = %+v", leaf.Routes[1])
	}
	p := leaf.Prefixes[0]
	if p.Addr != core.IPv4Addr(10, 0, 0, 0) || p.Len != 24 || p.OutPort != 3 {
		t.Fatalf("prefix = %+v", p)
	}
	// The parsed spec drives a real fabric end to end.
	h := newHarness(1)
	mustConverge(t, h, spec)
}

// specErrCases are spec documents parseSpec must refuse, each with a
// substring of its error.
var specErrCases = []struct{ src, want string }{
	{"devices:\n  - device: x\n    bogus: 1", "unknown key"},
	{"devices:\n  - device: x\n    routes:\n      - dst: 10.0.0.1\n        prio: 1", "needs port or drop"},
	{"devices:\n  - device: x\n    routes:\n      - dst: 300.0.0.1\n        prio: 1\n        port: 0", "dotted quad"},
	{"devices:\n  - device: x\n    prefixes:\n      - prefix: 10.0.0.0/40\n        port: 0", "prefix length"},
	{"devices:\n  - device: x\n    tenants:\n      - id: 1", "missing key"},
	// A list-valued key written as a map must fail loudly, not
	// decode as zero items.
	{"devices:\n  leaf0:\n    routes: []", "devices must be a list"},
	{"devices:\n  - device: x\n    routes:\n      r0:\n        dst: 10.0.0.1", "routes must be a list"},
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range specErrCases {
		if _, err := parseSpec(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseSpec(%q) err = %v, want %q", tc.src, err, tc.want)
		}
	}
}

// FuzzDecodeSpec feeds arbitrary text through the controller's
// untrusted-input path — yamlite.Parse, DecodeSpec, Normalize — which
// must refuse what it cannot take and never panic.  A spec Normalize
// accepts is canonical: normalizing it again changes nothing, the
// fixpoint the diff's field-for-field comparison relies on.  A
// document with a top-level "spec:" key (fabricctl's file format)
// decodes that key.
func FuzzDecodeSpec(f *testing.F) {
	example, err := os.ReadFile("../../examples/fabric/fabric.yaml")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(example))
	f.Add(specSrc)
	f.Add("devices:\n  - device: x\n    tenants:\n      - id: 1\n        words: 8\n        weight: nan")
	for _, tc := range specErrCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root, err := yamlite.Parse(src)
		if err != nil {
			return
		}
		if sn := root.Get("spec"); sn != nil {
			root = sn
		}
		spec, err := fabric.DecodeSpec(root)
		if err != nil {
			return
		}
		ns, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := ns.Normalize()
		if err != nil {
			t.Fatalf("normalized spec refused: %v\n%+v", err, ns)
		}
		if !reflect.DeepEqual(ns, again) {
			t.Fatalf("Normalize is not idempotent:\nonce  %+v\ntwice %+v", ns, again)
		}
	})
}

func TestParseDuration(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want netsim.Time
		bad  bool // refused, with an error naming src
	}{
		{src: "250ns", want: 250},
		{src: "10us", want: 10 * netsim.Microsecond},
		{src: "50ms", want: 50 * netsim.Millisecond},
		{src: "1.5s", want: netsim.Time(1.5 * float64(netsim.Second))},
		{src: "0s", want: 0},
		{src: "9223372036854775807ns", bad: true}, // rounds to 2^63 ns
		{src: "9223372036s", want: 9223372036 * netsim.Second},
		{src: "7", bad: true}, // no unit
		{src: "-5ms", bad: true},
		{src: "NaNms", bad: true},
		{src: "Infs", bad: true},
		{src: "-Infus", bad: true},
		{src: "1e30s", bad: true},
	} {
		got, err := fabric.ParseDuration(tc.src)
		switch {
		case tc.bad && (err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.src))):
			t.Errorf("ParseDuration(%q) = %v, %v; want an error naming the text", tc.src, got, err)
		case !tc.bad && (err != nil || got != tc.want):
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", tc.src, got, err, tc.want)
		}
	}
}
