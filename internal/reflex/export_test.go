package reflex

// Evidence returns one monitored port's raw SRAM heartbeat echo word.
func (a *Arm) Evidence(port int) uint32 { return a.sw.SRAM(a.hbIdx(port)) }

// Lag returns how many heartbeats the port's echo trails the send
// counter — the arm's deadness measure.
func (a *Arm) Lag(port int) uint32 {
	m := a.monitors[port]
	if m == nil {
		return 0
	}
	return m.sent - a.sw.SRAM(a.hbIdx(port))
}
