package reflex

import (
	"encoding/hex"
	"testing"

	"repro/internal/asic"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// TestHeartbeatWireBytes pins the heartbeat TPP byte for byte: the
// CEXEC gate on the home switch, the STORE into the monitored port's
// evidence word and the sequence number it carries.
func TestHeartbeatWireBytes(t *testing.T) {
	sim := netsim.New(1)
	a := &Arm{sim: sim, sw: asic.New(sim, asic.Config{ID: 6, Ports: 4}),
		region: mem.Region{Base: mem.SRAMBase + 20, Words: 4}}
	got := hex.EncodeToString(a.heartbeat(&monitor{port: 2, sent: 9}).TPP.AppendTo(nil))
	if want := "0100010200030000000000000600000002416002ffffffff0000000600000009"; got != want {
		t.Errorf("heartbeat:\n got %s\nwant %s", got, want)
	}
}
