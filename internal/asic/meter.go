package asic

// meter estimates a byte rate with an exponentially weighted moving
// average over fixed windows, the way ASIC utilization registers are
// maintained.  The switch housekeeping ticker calls Tick once per
// statistics interval.
type meter struct {
	gain   float64 // EWMA gain applied to each new window sample
	window float64 // window length in seconds
	accum  uint64  // bytes observed in the current window
	rate   float64 // bytes per second
}

func newMeter(gain, windowSec float64) meter {
	return meter{gain: gain, window: windowSec}
}

// Add records n bytes in the current window.
func (m *meter) Add(n int) { m.accum += uint64(n) }

// Tick closes the current window and folds it into the average.
func (m *meter) Tick() {
	sample := float64(m.accum) / m.window
	m.accum = 0
	m.rate = m.gain*sample + (1-m.gain)*m.rate
}

// Rate returns the smoothed rate in bytes per second, saturating at the
// 32-bit register width used by the memory map.
func (m *meter) Rate() uint32 {
	if m.rate < 0 {
		return 0
	}
	if m.rate > float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(m.rate)
}
