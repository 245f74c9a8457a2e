package asic

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

func dataPkt(payload int) *core.Packet {
	return &core.Packet{Eth: core.Ethernet{Type: core.EtherTypeIPv4}, PadLen: payload}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(10_000)
	a, b := dataPkt(100), dataPkt(200)
	if !q.Enqueue(a) || !q.Enqueue(b) {
		t.Fatal("enqueue failed")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if q.Dequeue() != a || q.Dequeue() != b || q.Dequeue() != nil {
		t.Fatal("FIFO order broken")
	}
}

func TestQueueDropTail(t *testing.T) {
	q := NewQueue(300)
	if !q.Enqueue(dataPkt(100)) { // 114 bytes on the wire
		t.Fatal("first enqueue failed")
	}
	if !q.Enqueue(dataPkt(100)) {
		t.Fatal("second enqueue failed")
	}
	if q.Enqueue(dataPkt(100)) {
		t.Fatal("third enqueue should drop (228+114 > 300)")
	}
	if q.DropPkts != 1 || q.DropBytes != 114 {
		t.Fatalf("drop counters: %d pkts %d bytes", q.DropPkts, q.DropBytes)
	}
	if q.Bytes() != 228 {
		t.Fatalf("occupancy = %d", q.Bytes())
	}
}

// Property: byte conservation — everything enqueued is either still
// resident or was dequeued; drops never touch occupancy.
func TestQueueConservation(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	q := NewQueue(5_000)
	for i := 0; i < 10_000; i++ {
		if r.Intn(2) == 0 {
			q.Enqueue(dataPkt(r.Intn(1500)))
		} else {
			q.Dequeue()
		}
		if q.EnqBytes != q.DeqBytes+uint64(q.Bytes()) {
			t.Fatalf("conservation violated at step %d: enq=%d deq=%d resident=%d",
				i, q.EnqBytes, q.DeqBytes, q.Bytes())
		}
		if q.Bytes() > q.CapBytes() {
			t.Fatalf("occupancy %d exceeds capacity", q.Bytes())
		}
		if q.Bytes() < 0 {
			t.Fatalf("negative occupancy")
		}
	}
	if q.EnqPkts == 0 || q.DropPkts == 0 {
		t.Fatal("test did not exercise both paths")
	}
}

func TestMeterConvergence(t *testing.T) {
	m := newMeter(0.5, 0.01) // 10ms windows
	for i := 0; i < 100; i++ {
		m.Add(1250) // 1250 bytes per 10ms = 125000 B/s
		m.Tick()
	}
	if got := m.Rate(); got < 124_000 || got > 126_000 {
		t.Fatalf("rate = %d, want ~125000", got)
	}
	// Stop offering traffic: rate must decay toward zero.
	for i := 0; i < 100; i++ {
		m.Tick()
	}
	if got := m.Rate(); got > 100 {
		t.Fatalf("rate after idle = %d", got)
	}
}

func TestMeterSaturation(t *testing.T) {
	m := newMeter(1.0, 1e-9) // absurd window to force saturation
	m.Add(1 << 30)
	m.Tick()
	if m.Rate() != ^uint32(0) {
		t.Fatal("rate must saturate at the register width")
	}
}

// The Fig. 2 bottleneck shape: a queue that never quite drains.  Its
// backing array must track occupancy, not the packets passed through
// (head-index-on-a-slice reached cap 1 135 616 here).
func TestQueueBackingBoundedByOccupancy(t *testing.T) {
	q := NewQueue(10_000)
	p := dataPkt(100)
	q.Enqueue(p)
	for i := 0; i < 1_000_000; i++ {
		if !q.Enqueue(p) || q.Dequeue() != p {
			t.Fatalf("step %d: enqueue/dequeue at occupancy <= 2 failed", i)
		}
	}
	// The ring keeps its backing array to itself; its length is read
	// through reflect.
	backing := reflect.ValueOf(&q.pkts).Elem().FieldByName("buf").Len()
	if q.Len() != 1 || backing > 8 {
		t.Fatalf("len %d, backing array %d entries after 1e6 packets", q.Len(), backing)
	}
}
