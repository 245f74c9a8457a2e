// Package endhost implements the host side of the TPP architecture:
// "smartness at the edge".  Hosts carry a NIC with a drop-tail transmit
// queue, demultiplex received packets to protocol handlers, echo
// executed TPPs back to their senders, and run Prober/Collector agents
// that the example network tasks (RCP*, micro-burst detection, ndb)
// are built from.
package endhost

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/tcpu"
	"repro/internal/verify"
)

// NIC is a host network interface: a FIFO transmit queue in front of
// one egress channel.  The NIC is also the trusted edge of the TPP
// architecture: it seals tenant identities, statically verifies every
// program at injection (§3.5), and compiles each program shape once,
// caching the compilation by its wire shape so repeated flows do not
// pay for it again.
type NIC struct {
	ch    *netsim.Channel
	queue ring.Buf[*core.Packet] // packets waiting to transmit
	max   int

	verifier *verify.Config
	tenant   uint8

	// progCache compiles injected programs once, keyed by wire shape
	// (built lazily on the first TPP send so the config can account
	// for the verifier's device limits); it resets when the verifier
	// changes.
	progCache *tcpu.Cache

	// Drops counts transmit-queue tail drops.
	Drops uint64
	// Sent counts packets handed to the channel.
	Sent uint64
	// Rejected counts TPP packets the static verifier refused to
	// inject.
	Rejected uint64
}

// NewNIC builds a NIC with a transmit queue of 256 packets
// (SetCapacity changes it).
func NewNIC() *NIC {
	return &NIC{max: 256}
}

// Attach wires the NIC to its egress channel.
func (n *NIC) Attach(ch *netsim.Channel) {
	n.ch = ch
	ch.SetOnIdle(n.kick)
}

// Channel returns the egress channel (nil while unattached).
func (n *NIC) Channel() *netsim.Channel { return n.ch }

// SetCapacity resizes the transmit queue limit; experiments that
// pre-queue large batches raise it.
func (n *NIC) SetCapacity(max int) {
	if max > 0 {
		n.max = max
	}
}

// QueueLen returns the number of packets waiting to transmit.
func (n *NIC) QueueLen() int { return n.queue.Len() }

// SetVerifier installs the end-host sanity check of §3.5: every
// TPP-bearing packet is statically verified at injection time and
// rejected (Send returns false) when the program carries
// error-severity diagnostics, so provably faulting or over-budget
// programs never enter the fabric; Rejected counts them.  A nil cfg
// disables verification (the default).
func (n *NIC) SetVerifier(cfg *verify.Config) {
	n.verifier = cfg
	n.progCache = nil // compiled under the old device limit
}

// SetTenant binds the NIC to an isolation principal.  The NIC is the
// trusted edge of the tenant guard — the hypervisor vswitch of the
// extended paper — so Send stamps every outgoing TPP with this id,
// overwriting whatever the guest wrote: identities are sealed at the
// edge, never claimed by guests.  An unconfigured NIC is an
// infrastructure (operator, id 0) NIC.
func (n *NIC) SetTenant(id uint8) {
	n.tenant = id
}

// Send queues the packet for transmission, returning false on a tail
// drop or a verifier rejection.  Both are death points: a pooled packet
// goes back to its pool (its sender has already let go of it), any
// other packet is untouched.
func (n *NIC) Send(pkt *core.Packet) bool {
	if pkt.TPP != nil {
		// Seal the tenant identity before anything else — including
		// verification, which must judge the program as the tenant it
		// will actually run as.
		pkt.TPP.Tenant = n.tenant
		if n.verifier != nil {
			if res := verify.Verify(pkt.TPP, *n.verifier); !res.OK() {
				n.Rejected++
				pkt.Recycle()
				return false
			}
		}
		// Compile once at the edge and attach the shared immutable
		// program, so every TCPU on the path whose device config
		// matches executes it directly.
		if n.progCache == nil {
			cfg := tcpu.Config{}
			if n.verifier != nil {
				cfg.MaxInstructions = n.verifier.MaxInstructions
			}
			n.progCache = tcpu.NewCache(cfg, 0)
		}
		if prog := n.progCache.Get(pkt.TPP); prog != nil {
			pkt.TPP.Compiled = prog
		}
	}
	if n.QueueLen() >= n.max {
		n.Drops++
		pkt.Recycle()
		return false
	}
	n.queue.Push(pkt)
	n.kick()
	return true
}

// kick starts a transmission if the channel is idle and a packet is
// waiting.  Whenever it leaves a packet waiting — the channel is busy,
// or took one frame of several — it asks the channel for the
// transmit-complete wake-up, which does not come unasked.
//
//alloc:free
func (n *NIC) kick() {
	if n.ch == nil {
		return
	}
	if n.ch.Busy() {
		n.ch.WakeWhenIdle()
		return
	}
	pkt := n.queue.Pop()
	if pkt == nil {
		return
	}
	n.Sent++
	n.ch.Send(pkt)
	if n.queue.Len() > 0 {
		n.ch.WakeWhenIdle()
	}
}
