package fabric

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fabric/yamlite"
	"repro/internal/guard"
	"repro/internal/netsim"
)

// DecodeSpec decodes a parsed spec document (the value of a top-level
// document, or of a scenario's "spec:" key), which reads in YAML:
//
//	devices:
//	  - device: leaf0
//	    tenants:
//	      - id: 1
//	        policy: control   # or default
//	        words: 64
//	        weight: 10
//	        burst: 16
//	    services:
//	      - name: rcp
//	        words: 8
//	        seed: [1250000, 0]
//	    routes:
//	      - dst: 10.0.0.1
//	        prio: 100
//	        port: 1          # or drop: true
//	    prefixes:
//	      - prefix: 10.0.0.0/24
//	        port: 3
//
// Unknown keys are rejected — a typo in a spec must fail loudly, not
// silently under-configure the fabric.
func DecodeSpec(root *yamlite.Node) (Spec, error) {
	if root == nil {
		return Spec{}, fmt.Errorf("fabric: no spec")
	}
	if err := root.CheckKeys("devices"); err != nil {
		return Spec{}, fmt.Errorf("fabric: %w", err)
	}
	var spec Spec
	devs, err := listOf(root, "devices")
	if err != nil {
		return Spec{}, err
	}
	for _, dn := range devs {
		d, err := decodeDevice(dn)
		if err != nil {
			return Spec{}, err
		}
		spec.Devices = append(spec.Devices, d)
	}
	return spec, nil
}

// listOf fetches n[key] as a list of items.  A present-but-not-a-list
// value is an error, not zero items: `devices:` written as a map would
// otherwise decode as an empty spec and silently under-configure the
// fabric.
func listOf(n *yamlite.Node, key string) ([]*yamlite.Node, error) {
	v := n.Get(key)
	if v == nil {
		return nil, nil
	}
	if v.Kind() != yamlite.List {
		return nil, fmt.Errorf("fabric: %s must be a list, got a %v (line %d)", key, v.Kind(), v.Line)
	}
	return v.Items(), nil
}

func decodeDevice(n *yamlite.Node) (DeviceSpec, error) {
	if err := n.CheckKeys("device", "tenants", "services", "routes", "prefixes"); err != nil {
		return DeviceSpec{}, fmt.Errorf("fabric: %w", err)
	}
	d := DeviceSpec{Device: n.Get("device").Str()}
	wrap := func(err error) error { return fmt.Errorf("device %s: %w", d.Device, err) }
	tns, err := listOf(n, "tenants")
	if err != nil {
		return DeviceSpec{}, wrap(err)
	}
	for _, tn := range tns {
		t, err := decodeTenant(tn)
		if err != nil {
			return DeviceSpec{}, wrap(err)
		}
		d.Tenants = append(d.Tenants, t)
	}
	sns, err := listOf(n, "services")
	if err != nil {
		return DeviceSpec{}, wrap(err)
	}
	for _, sn := range sns {
		s, err := decodeService(sn)
		if err != nil {
			return DeviceSpec{}, wrap(err)
		}
		d.Services = append(d.Services, s)
	}
	rns, err := listOf(n, "routes")
	if err != nil {
		return DeviceSpec{}, wrap(err)
	}
	for _, rn := range rns {
		r, err := decodeRoute(rn)
		if err != nil {
			return DeviceSpec{}, wrap(err)
		}
		d.Routes = append(d.Routes, r)
	}
	pns, err := listOf(n, "prefixes")
	if err != nil {
		return DeviceSpec{}, wrap(err)
	}
	for _, pn := range pns {
		p, err := decodePrefix(pn)
		if err != nil {
			return DeviceSpec{}, wrap(err)
		}
		d.Prefixes = append(d.Prefixes, p)
	}
	return d, nil
}

func decodeTenant(n *yamlite.Node) (Tenant, error) {
	if err := n.CheckKeys("id", "policy", "words", "weight", "burst"); err != nil {
		return Tenant{}, fmt.Errorf("fabric: %w", err)
	}
	id, err := intKey(n, "id", true)
	if err != nil {
		return Tenant{}, err
	}
	words, err := intKey(n, "words", true)
	if err != nil {
		return Tenant{}, err
	}
	t := Tenant{ID: guard.TenantID(id), Words: int(words), Policy: Policy(n.Get("policy").Str())}
	if w := n.Get("weight"); w != nil {
		if t.Weight, err = w.Float(); err != nil {
			return Tenant{}, err
		}
	}
	if b := n.Get("burst"); b != nil {
		burst, err := b.Int()
		if err != nil {
			return Tenant{}, err
		}
		t.Burst = int(burst)
	}
	return t, nil
}

func decodeService(n *yamlite.Node) (Service, error) {
	if err := n.CheckKeys("name", "words", "seed"); err != nil {
		return Service{}, fmt.Errorf("fabric: %w", err)
	}
	words, err := intKey(n, "words", true)
	if err != nil {
		return Service{}, err
	}
	s := Service{Name: n.Get("name").Str(), Words: int(words)}
	seed, err := listOf(n, "seed")
	if err != nil {
		return Service{}, fmt.Errorf("service %s: %w", s.Name, err)
	}
	for _, w := range seed {
		v, err := w.Int()
		if err != nil {
			return Service{}, fmt.Errorf("service %s: %w", s.Name, err)
		}
		s.Seed = append(s.Seed, uint32(v))
	}
	return s, nil
}

func decodeRoute(n *yamlite.Node) (Route, error) {
	if err := n.CheckKeys("dst", "prio", "port", "drop"); err != nil {
		return Route{}, fmt.Errorf("fabric: %w", err)
	}
	dst, err := ParseIP(n.Get("dst").Str())
	if err != nil {
		return Route{}, err
	}
	prio, err := intKey(n, "prio", true)
	if err != nil {
		return Route{}, err
	}
	r := Route{DstIP: dst, Priority: int(prio)}
	if d := n.Get("drop"); d != nil {
		if r.Drop, err = d.Bool(); err != nil {
			return Route{}, err
		}
	}
	if p := n.Get("port"); p != nil {
		if r.Drop {
			return Route{}, fmt.Errorf("route %s: both port and drop", n.Get("dst").Str())
		}
		port, err := p.Int()
		if err != nil {
			return Route{}, err
		}
		r.OutPort = int(port)
	} else if !r.Drop {
		return Route{}, fmt.Errorf("route %s: needs port or drop", n.Get("dst").Str())
	}
	return r, nil
}

func decodePrefix(n *yamlite.Node) (Prefix, error) {
	if err := n.CheckKeys("prefix", "port"); err != nil {
		return Prefix{}, fmt.Errorf("fabric: %w", err)
	}
	addr, plen, err := ParsePrefix(n.Get("prefix").Str())
	if err != nil {
		return Prefix{}, err
	}
	port, err := intKey(n, "port", true)
	if err != nil {
		return Prefix{}, err
	}
	return Prefix{Addr: addr, Len: plen, OutPort: int(port)}, nil
}

func intKey(n *yamlite.Node, key string, required bool) (int64, error) {
	v := n.Get(key)
	if v == nil {
		if required {
			return 0, fmt.Errorf("fabric: missing key %q", key)
		}
		return 0, nil
	}
	return v.Int()
}

// ParseIP parses a dotted quad into the uint32 the tables use.
func ParseIP(s string) (uint32, error) {
	parts := strings.Split(strings.TrimSpace(s), ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("fabric: %q is not a dotted quad", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("fabric: %q is not a dotted quad", s)
		}
		ip = ip<<8 | uint32(v)
	}
	return ip, nil
}

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (addr uint32, plen int, err error) {
	base, lenStr, ok := strings.Cut(strings.TrimSpace(s), "/")
	if !ok {
		return 0, 0, fmt.Errorf("fabric: %q is not an a.b.c.d/len prefix", s)
	}
	if addr, err = ParseIP(base); err != nil {
		return 0, 0, err
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 || n > 32 {
		return 0, 0, fmt.Errorf("fabric: bad prefix length in %q", s)
	}
	return addr, n, nil
}

// ParseDuration parses "250ns", "10us", "50ms", "1.5s" into simulated
// time (longest-suffix match, so "ms" is not read as "s").  Durations
// simulated time cannot hold — negative, NaN, infinite, or past
// math.MaxInt64 ns — are refused.
func ParseDuration(s string) (netsim.Time, error) {
	s = strings.TrimSpace(s)
	for _, u := range []struct {
		suffix string
		unit   netsim.Time
	}{
		{"ns", netsim.Nanosecond},
		{"us", netsim.Microsecond},
		{"ms", netsim.Millisecond},
		{"s", netsim.Second},
	} {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSuffix(s, u.suffix)
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("fabric: bad duration %q", s)
		}
		d := v * float64(u.unit)
		if !(d >= 0 && d < math.MaxInt64) {
			return 0, fmt.Errorf("fabric: duration %q out of range", s)
		}
		return netsim.Time(d), nil
	}
	return 0, fmt.Errorf("fabric: duration %q needs a ns/us/ms/s suffix", s)
}
