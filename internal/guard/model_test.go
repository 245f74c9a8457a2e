package guard

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
)

// permSwitch is ACL.Allows as a switch over the namespace, the form it
// had before the packed mask; the mask must agree with it everywhere.
func permSwitch(a ACL, ns mem.Namespace, write bool) bool {
	var p Perm
	switch ns {
	case mem.NSSwitch:
		p = a.Switch
	case mem.NSPort:
		p = a.Port
	case mem.NSQueue:
		p = a.Queue
	case mem.NSPacket:
		p = a.Packet
	case mem.NSSRAM:
		p = a.SRAM
	case mem.NSPortAbs:
		p = a.PortAbs
	}
	if write {
		return p&PermWrite != 0
	}
	return p&PermRead != 0
}

// aclOf spreads the low 12 bits of k over the six permission pairs.
func aclOf(k int) ACL {
	p := func(i int) Perm { return Perm(k >> (2 * i) & 3) }
	return ACL{Switch: p(0), Port: p(1), Queue: p(2), Packet: p(3), SRAM: p(4), PortAbs: p(5)}
}

// TestAllowsMatchesPermSwitch checks the mask against the switch for all
// 4 096 ACLs, all eight values a namespace's three bits can take, and
// both access classes.
func TestAllowsMatchesPermSwitch(t *testing.T) {
	for k := 0; k < 1<<12; k++ {
		a := aclOf(k)
		for ns := mem.Namespace(0); ns < 8; ns++ {
			for _, write := range []bool{false, true} {
				if got, want := a.Allows(ns, write), permSwitch(a, ns, write); got != want {
					t.Fatalf("%+v.Allows(%v, write=%v) = %v, want %v", a, ns, write, got, want)
				}
			}
		}
	}
}

// modelTenant is one registered tenant in the map model.
type modelTenant struct {
	grant             Grant
	tokens            float64
	refillAt          netsim.Time
	denied, throttled uint64
}

// TestTableAgainstMapModel runs a seeded sequence of every Table
// operation against a map-backed model of the same bookkeeping.  The id
// pool includes the operator, id 255 and ids that are freed and
// registered again, so the slot slice's edges are all exercised.
func TestTableAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tb := NewTable(mem.NewAllocator())
	model := map[TenantID]*modelTenant{}
	weightSum := 0.0
	ids := []TenantID{Operator, 1, 2, 3, 9, 64, 254, 255}
	const rate = 5000.0
	var now netsim.Time
	reregistered, saw255 := 0, false
	everRegistered := map[TenantID]bool{}

	for step := 0; step < 5000; step++ {
		id := ids[r.Intn(len(ids))]
		m := model[id]
		switch op := r.Intn(8); op {
		case 0, 1:
			acl := aclOf(r.Intn(1 << 12))
			weight := []float64{0, 0.5, 1, 3}[r.Intn(4)]
			burst := r.Intn(4)
			g, err := tb.Register(id, acl, 1+r.Intn(32), weight, burst)
			if id == Operator || m != nil {
				if err == nil {
					t.Fatalf("step %d: Register(%d) succeeded twice", step, id)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: Register(%d): %v", step, id, err)
			}
			wantW, wantB := weight, burst
			if wantW == 0 {
				wantW = 1
			}
			if wantB == 0 {
				wantB = DefaultBurst
			}
			if g.ACL != acl || g.Weight != wantW || g.Burst != wantB {
				t.Fatalf("step %d: Register(%d) = %+v", step, id, g)
			}
			if everRegistered[id] {
				reregistered++
			}
			everRegistered[id] = true
			saw255 = saw255 || id == 255
			model[id] = &modelTenant{grant: g, tokens: float64(g.Burst)}
			weightSum += g.Weight
		case 2:
			reg, err := tb.Deregister(id)
			if m == nil {
				if err == nil {
					t.Fatalf("step %d: Deregister(%d) of an unregistered tenant succeeded", step, id)
				}
				break
			}
			if err != nil || reg != m.grant.Partition {
				t.Fatalf("step %d: Deregister(%d) = %+v, %v; want %+v", step, id, reg, err, m.grant.Partition)
			}
			weightSum -= m.grant.Weight
			delete(model, id)
		case 3, 4:
			want := id == Operator
			if !want && m != nil {
				if now > m.refillAt {
					m.tokens += (now - m.refillAt).Seconds() * rate * m.grant.Weight / weightSum
					m.tokens = math.Min(m.tokens, float64(m.grant.Burst))
				}
				m.refillAt = now
				if want = m.tokens >= 1; want {
					m.tokens--
				} else {
					m.throttled++
				}
			}
			if got := tb.Admit(id, now, rate); got != want {
				t.Fatalf("step %d: Admit(%d) = %v, want %v", step, id, got, want)
			}
		case 5:
			tb.NoteDenied(id)
			if m != nil {
				m.denied++
			}
		case 6:
			tb.ResetBuckets(now)
			for _, m := range model {
				m.tokens, m.refillAt = float64(m.grant.Burst), now
			}
		case 7:
			now += netsim.Time(r.Intn(400)) * netsim.Microsecond
		}

		var want []TenantID
		for id := range model {
			want = append(want, id)
		}
		slices.Sort(want)
		if got := tb.Tenants(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Tenants() = %v, want %v", step, got, want)
		}
		for _, id := range ids {
			m := model[id]
			g, ok := tb.Lookup(id)
			switch {
			case id == Operator:
				if !ok || g != OperatorGrant() {
					t.Fatalf("step %d: operator Lookup = %+v, %v", step, g, ok)
				}
			case (m != nil) != ok || (ok && g != m.grant):
				t.Fatalf("step %d: Lookup(%d) = %+v, %v; model %+v", step, id, g, ok, m)
			}
			var denied, throttled uint64
			if m != nil {
				denied, throttled = m.denied, m.throttled
			}
			if tb.Denied(id) != denied || tb.Throttled(id) != throttled {
				t.Fatalf("step %d: tenant %d denied/throttled = %d/%d, want %d/%d",
					step, id, tb.Denied(id), tb.Throttled(id), denied, throttled)
			}
			// The operator's grant is built in, not registered.
			if g, ok := tb.Lookup(id); id != Operator && ((m != nil) != ok || (ok && g.Partition != m.grant.Partition)) {
				t.Fatalf("step %d: Lookup(%d).Partition = %+v, %v", step, id, g.Partition, ok)
			}
		}
	}
	if reregistered == 0 || !saw255 {
		t.Fatalf("sequence never re-registered a freed id (%d) or registered 255 (%v)", reregistered, saw255)
	}
}
