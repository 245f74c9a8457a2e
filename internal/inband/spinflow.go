package inband

import (
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Spin flow UDP ports: data carries the client's spin bit toward the
// server, reply carries it reflected back.
const (
	SpinDataPort  = 7090
	SpinReplyPort = 7091
)

// SpinFlowConfig wires a SpinFlow to its two endpoints.
type SpinFlowConfig struct {
	Client, Server *endhost.Host
	// ReplyDelay is the server's think time before reflecting packet i
	// (nil for immediate reflection); deterministic variation here
	// spreads the flow's RTT across histogram buckets.
	ReplyDelay func(i int) netsim.Time
	// MaxFlips bounds the exchange; the flow stops after that many
	// spin transitions.
	MaxFlips int
	// PayloadLen pads every data and reply packet to the same size, so
	// serialization delay is constant and intervals compare exactly.
	PayloadLen int
}

// SpinFlow is the endpoint half of the QUIC-style spin-bit protocol:
// the client sends a data packet carrying its spin value in the TOS
// core.SpinBit, the server reflects the bit, and when the client sees
// its own current value come back — one full round trip — it flips the
// bit and sends again.  Every client→server packet is therefore an
// edge, and the interval between consecutive edges at any on-path
// vantage point equals the client's flip interval: the flow's RTT,
// observable at a switch (asic.Switch.WatchSpin) from the single bit
// with zero cooperation beyond this protocol.
//
// The client records its own flip intervals into Truth — the ground
// truth the dataplane observer is reconciled against bucket-for-bucket.
type SpinFlow struct {
	cfg      SpinFlowConfig
	bit      uint8
	lastFlip netsim.Time
	stopped  bool
	replies  int

	// Flips counts spin transitions; Truth holds the client-measured
	// interval histogram.
	Flips uint64
	Truth *obs.Histogram
}

// NewSpinFlow claims the spin ports on both hosts.
func NewSpinFlow(cfg SpinFlowConfig) *SpinFlow {
	f := &SpinFlow{cfg: cfg, Truth: obs.NewHistogram()}
	cfg.Server.Handle(SpinDataPort, f.onData)
	cfg.Client.Handle(SpinReplyPort, f.onReply)
	return f
}

// Start anchors the flip clock and sends the first data packet (spin
// value 0 — matching the observer's convention of anchoring on the
// first packet seen).
func (f *SpinFlow) Start() {
	f.lastFlip = f.cfg.Client.Sim.Now()
	f.send()
}

func (f *SpinFlow) send() {
	pkt := f.cfg.Client.NewPacket(f.cfg.Server.MAC, f.cfg.Server.IP,
		SpinReplyPort, SpinDataPort, f.cfg.PayloadLen)
	pkt.IP.TOS |= f.bit
	f.cfg.Client.Send(pkt)
}

// onData is the server: reflect the received spin value after the
// configured think time.
func (f *SpinFlow) onData(pkt *core.Packet) {
	i := f.replies
	f.replies++
	bit := pkt.IP.TOS & core.SpinBit
	reflect := func() {
		r := f.cfg.Server.NewPacket(f.cfg.Client.MAC, f.cfg.Client.IP,
			SpinDataPort, SpinReplyPort, f.cfg.PayloadLen)
		r.IP.TOS |= bit
		f.cfg.Server.Send(r)
	}
	var d netsim.Time
	if f.cfg.ReplyDelay != nil {
		d = f.cfg.ReplyDelay(i)
	}
	if d > 0 {
		f.cfg.Server.Sim.After(d, reflect)
	} else {
		reflect()
	}
}

// onReply is the client: seeing its own current spin value reflected
// completes a round trip — record the interval, flip, send the next
// edge.  The final edge packet is still sent after MaxFlips so the
// on-path observer sees every interval the client recorded; its
// reflection is then ignored.
func (f *SpinFlow) onReply(pkt *core.Packet) {
	if f.stopped {
		return
	}
	if pkt.IP.TOS&core.SpinBit != f.bit {
		return // stale reflection of a pre-flip packet
	}
	now := f.cfg.Client.Sim.Now()
	f.Truth.Observe(uint64(now - f.lastFlip))
	f.Flips++
	f.lastFlip = now
	f.bit ^= core.SpinBit
	f.send()
	if f.cfg.MaxFlips > 0 && f.Flips >= uint64(f.cfg.MaxFlips) {
		f.stopped = true
	}
}
