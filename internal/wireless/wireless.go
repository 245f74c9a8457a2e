// Package wireless models the paper's "other possibilities" extension:
// "TPPs are not just limited to wired networks; they can also be used
// in wireless networks where access points can annotate end-host
// packets with channel SNR which changes very quickly."
//
// An AP attaches to one switch port and drives its SNR register with an
// Ornstein–Uhlenbeck process (mean-reverting random walk), the standard
// model for a fading channel's slow envelope.  End-hosts read the
// register per packet through PUSH [Link:SNR] and can compare that
// against coarse polling, exactly as in the micro-burst experiment.
package wireless

import (
	"math"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// The simulated channel fades fast around 25 dB.
const (
	// meanSNRdB is the long-run mean SNR in dB.
	meanSNRdB = 25.0
	// reversion is the OU mean-reversion rate (1/s).
	reversion = 50
	// volatility is the OU noise magnitude (dB/sqrt(s)).
	volatility = 40
	// updateEvery is how often the channel state advances.
	updateEvery = netsim.Millisecond
)

// AP is an access point: a switch port whose SNR register tracks the
// simulated channel.
type AP struct {
	sim  *netsim.Sim
	port *asic.Port
	snr  float64

	// Updates counts channel-state advances.
	Updates uint64
}

// NewAP attaches an access-point channel model to (sw, port) and starts
// updating it.
func NewAP(sim *netsim.Sim, sw *asic.Switch, port int) *AP {
	ap := &AP{sim: sim, port: sw.Port(port), snr: meanSNRdB}
	ap.publish()
	sim.Every(sim.Now()+updateEvery, updateEvery, ap.step)
	return ap
}

// SNRdB returns the current channel SNR in dB.
func (ap *AP) SNRdB() float64 { return ap.snr }

func (ap *AP) step() {
	dt := updateEvery.Seconds()
	noise := ap.sim.Rand().NormFloat64() * volatility * math.Sqrt(dt)
	ap.snr += reversion*(meanSNRdB-ap.snr)*dt + noise
	if ap.snr < 0 {
		ap.snr = 0
	}
	ap.Updates++
	ap.publish()
}

// publish writes the register in centi-dB, the unit [Link:SNR] exposes.
func (ap *AP) publish() {
	ap.port.SetSNR(uint32(math.Round(ap.snr * 100)))
}

// SNRProgram returns the one-instruction probe reading the SNR of each
// traversed link.
func SNRProgram(maxHops int) *core.TPP {
	return core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.PortBase + mem.PortSNR)},
	}, maxHops)
}

// SNRFromCentiDB converts a register value back to dB.
func SNRFromCentiDB(v uint32) float64 { return float64(v) / 100 }
