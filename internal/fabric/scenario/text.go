package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fabric/yamlite"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// Parse is the text edge: it decodes a scenario kept as a YAML document
// into the Scenario value a harness would have built in Go, and
// returns it validated and in execution order (Validate).  "$name"
// tokens anywhere in the document are substituted from vars first, so
// one file can be parameterized across seeds and targets.
//
//	name: converge-under-churn
//	spec:
//	  devices: ...          # fabric.DecodeSpec format (optional)
//	phases:
//	  - name: provision
//	    kind: provision
//	    backoff: 10ms
//	  - name: storm
//	    kind: faults
//	    needs: [provision]
//	    events:
//	      - at: 3s
//	        kind: switch-reboot
//	        target: $victim
//
// Keys are the lower-cased Phase and faults.Event field names; unknown
// keys are rejected.
func Parse(src string, vars map[string]string) (Scenario, error) {
	src = substitute(src, vars)
	root, err := yamlite.Parse(src)
	if err != nil {
		return Scenario{}, err
	}
	if err := root.CheckKeys("name", "spec", "phases"); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	sc := Scenario{Name: root.Get("name").Str()}
	if sn := root.Get("spec"); sn != nil {
		spec, err := fabric.DecodeSpec(sn)
		if err != nil {
			return Scenario{}, err
		}
		sc.Spec = &spec
	}
	for i, pn := range root.Get("phases").Items() {
		p, err := decodePhase(pn)
		if err != nil {
			return Scenario{}, fmt.Errorf("scenario: phase %d: %w", i, err)
		}
		sc.Phases = append(sc.Phases, p)
	}
	return Validate(sc, nil)
}

// substitute replaces "$name" tokens, longest names first so "$seed2"
// never half-matches "$seed".
func substitute(src string, vars map[string]string) string {
	if len(vars) == 0 {
		return src
	}
	names := make([]string, 0, len(vars))
	for name := range vars { //lint:allow maporder (sorted below)
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if len(names[i]) != len(names[j]) {
			return len(names[i]) > len(names[j])
		}
		return names[i] < names[j]
	})
	pairs := make([]string, 0, 2*len(names))
	for _, name := range names {
		pairs = append(pairs, "$"+name, vars[name])
	}
	return strings.NewReplacer(pairs...).Replace(src)
}

func decodePhase(n *yamlite.Node) (Phase, error) {
	if err := n.CheckKeys("name", "kind", "needs", "repeat",
		"budget", "backoff", "applydelay", "bound", "events", "hooks", "until"); err != nil {
		return Phase{}, fmt.Errorf("scenario: %w", err)
	}
	p := Phase{Name: n.Get("name").Str(), Kind: Kind(n.Get("kind").Str())}
	for _, need := range n.Get("needs").Items() {
		p.Needs = append(p.Needs, need.Str())
	}
	for _, h := range n.Get("hooks").Items() {
		p.Hooks = append(p.Hooks, h.Str())
	}
	for i, en := range n.Get("events").Items() {
		ev, err := decodeEvent(en)
		if err != nil {
			return Phase{}, fmt.Errorf("event %d: %w", i, err)
		}
		p.Events = append(p.Events, ev)
	}
	if r := n.Get("repeat"); r != nil {
		v, err := r.Int()
		if err != nil || v < 1 {
			return Phase{}, fmt.Errorf("bad repeat: %v", err)
		}
		p.Repeat = int(v)
	}
	if b := n.Get("budget"); b != nil {
		v, err := b.Int()
		if err != nil {
			return Phase{}, err
		}
		p.Budget = int(v)
	}
	for _, f := range []struct {
		key string
		dst *netsim.Time
	}{
		{"backoff", &p.Backoff}, {"applydelay", &p.ApplyDelay}, {"bound", &p.Bound}, {"until", &p.Until},
	} {
		var err error
		if *f.dst, err = durationKey(n, f.key); err != nil {
			return Phase{}, err
		}
	}
	return p, nil
}

// kindByName maps the faults package's event names back to kinds.
// Deleted kinds leave gaps in the numbering, so every Kind value is
// tried; a gap names itself "unknown", which no kind is called.
func kindByName(name string) (faults.Kind, error) {
	if name != "unknown" {
		for k := range 256 {
			if faults.Kind(k).String() == name {
				return faults.Kind(k), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q", name)
}

func decodeEvent(n *yamlite.Node) (faults.Event, error) {
	if err := n.CheckKeys("at", "kind", "target",
		"pgoodbad", "pbadgood", "lossgood", "lossbad",
		"dstip", "bootdelay", "pps", "dstmac", "dir"); err != nil {
		return faults.Event{}, fmt.Errorf("scenario: %w", err)
	}
	var ev faults.Event
	var err error
	if ev.At, err = durationKey(n, "at"); err != nil {
		return faults.Event{}, err
	}
	if ev.Kind, err = kindByName(n.Get("kind").Str()); err != nil {
		return faults.Event{}, err
	}
	ev.Target = n.Get("target").Str()
	if ev.Target == "" {
		return faults.Event{}, fmt.Errorf("missing target")
	}
	for _, f := range []struct {
		key string
		dst *float64
	}{
		{"pgoodbad", &ev.PGoodBad}, {"pbadgood", &ev.PBadGood},
		{"lossgood", &ev.LossGood}, {"lossbad", &ev.LossBad}, {"pps", &ev.PPS},
	} {
		if v := n.Get(f.key); v != nil {
			if *f.dst, err = v.Float(); err != nil {
				return faults.Event{}, err
			}
		}
	}
	if v := n.Get("dstip"); v != nil {
		if ev.DstIP, err = fabric.ParseIP(v.Str()); err != nil {
			return faults.Event{}, err
		}
	}
	if ev.BootDelay, err = durationKey(n, "bootdelay"); err != nil {
		return faults.Event{}, err
	}
	if v := n.Get("dstmac"); v != nil {
		if ev.DstMAC, err = parseMAC(v.Str()); err != nil {
			return faults.Event{}, err
		}
	}
	if v := n.Get("dir"); v != nil {
		d, err := v.Int()
		if err != nil {
			return faults.Event{}, err
		}
		ev.Dir = int(d)
	}
	return ev, nil
}

// parseMAC parses the colon-hex form core.MAC.String renders.
func parseMAC(s string) (core.MAC, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	var mac core.MAC
	if len(parts) != len(mac) {
		return mac, fmt.Errorf("scenario: %q is not a MAC address", s)
	}
	for i, p := range parts {
		b, err := strconv.ParseUint(p, 16, 8)
		if err != nil || len(p) != 2 {
			return mac, fmt.Errorf("scenario: %q is not a MAC address", s)
		}
		mac[i] = uint8(b)
	}
	return mac, nil
}

func durationKey(n *yamlite.Node, key string) (netsim.Time, error) {
	v := n.Get(key)
	if v == nil {
		return 0, nil
	}
	return fabric.ParseDuration(v.Str())
}
