package asic

import (
	"repro/internal/core"
	"repro/internal/ring"
)

// Queue is a port's one drop-tail egress FIFO.  The ASIC memory manager
// "already keeps track of per-port, per-queue occupancies in its
// registers" (§2.1); those registers are the exported counters here.
type Queue struct {
	capBytes int

	pkts  ring.Buf[*core.Packet]
	bytes int

	// Cumulative counters, exposed through the Queue namespace.
	EnqBytes  uint64
	DropBytes uint64
	EnqPkts   uint64
	DropPkts  uint64
	DeqBytes  uint64
	DeqPkts   uint64
	// FlushedBytes and FlushedPkts count packets discarded by Flush
	// (a switch crash-restart wiping its buffer memory).  They close
	// the conservation equation EnqPkts == DeqPkts + DropPkts(post-
	// admission: zero today) + FlushedPkts + Len(), which the chaos
	// soak test asserts: a reboot neither duplicates nor leaks packets.
	FlushedBytes uint64
	FlushedPkts  uint64
}

// NewQueue builds a queue holding at most capBytes of packet data.
func NewQueue(capBytes int) *Queue {
	return &Queue{capBytes: capBytes}
}

// CapBytes returns the configured capacity.
func (q *Queue) CapBytes() int { return q.capBytes }

// Bytes returns the instantaneous occupancy — the value §2.1's
// micro-burst probe reads: "they are recorded the instant the packet
// traversed the switch".
func (q *Queue) Bytes() int { return q.bytes }

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.pkts.Len() }

// Enqueue appends the packet if it fits; otherwise the packet is
// dropped (drop-tail) and false is returned.  It stamps the packet's
// wire length into its metadata, where the switch's parser puts it.
//
//alloc:free
func (q *Queue) Enqueue(p *core.Packet) bool {
	p.Meta.WireLen = uint32(p.WireLen())
	return q.push(p, int(p.Meta.WireLen))
}

// push is Enqueue for a packet whose wire length n is stamped in its
// metadata already.
//
//alloc:free
func (q *Queue) push(p *core.Packet, n int) bool {
	if q.bytes+n > q.capBytes {
		q.DropBytes += uint64(n)
		q.DropPkts++
		return false
	}
	q.pkts.Push(p)
	q.bytes += n
	q.EnqBytes += uint64(n)
	q.EnqPkts++
	return true
}

// Flush discards every queued packet — the crash-restart path: buffer
// memory is wiped, so queued packets vanish without drop accounting at
// the egress.  each (optional) visits every discarded packet, letting
// the switch record a span per loss so telemetry reconciles exactly
// with the counters.  It returns the number of packets discarded.
//
//alloc:free
func (q *Queue) Flush(each func(*core.Packet)) int {
	n := q.Len()
	for p := q.pkts.Pop(); p != nil; p = q.pkts.Pop() {
		q.FlushedBytes += uint64(p.Meta.WireLen)
		if each != nil {
			each(p)
		}
		// Buffer memory is wiped: a crash is a fabric death point, so
		// pooled flood copies return to the pool here.
		p.Recycle()
	}
	q.FlushedPkts += uint64(n)
	q.bytes = 0
	return n
}

// Dequeue removes and returns the head packet, or nil when empty.
//
//alloc:free
func (q *Queue) Dequeue() *core.Packet {
	p, _ := q.pop()
	return p
}

// pop is Dequeue that also returns the packet's wire length, read from
// the stamp in its metadata.
//
//alloc:free
func (q *Queue) pop() (*core.Packet, int) {
	p := q.pkts.Pop()
	if p == nil {
		return nil, 0
	}
	n := int(p.Meta.WireLen)
	q.bytes -= n
	q.DeqBytes += uint64(n)
	q.DeqPkts++
	return p, n
}
